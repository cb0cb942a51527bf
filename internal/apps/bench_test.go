package apps

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/workload"
)

// Application-kernel benchmarks: per-application local-reduction throughput
// on the real engine — the quantity the simulator's ComputeBytesPerSec
// calibration stands in for.

func benchPointsDataset(b *testing.B, gen workload.Generator, units int64) (*chunk.Index, chunk.Source) {
	b.Helper()
	ix, err := chunk.Layout("bp", units, gen.UnitSize(), int(units/4), int(units/32))
	if err != nil {
		b.Fatal(err)
	}
	src := chunk.NewMemSource(ix)
	if err := workload.Build(ix, gen, src); err != nil {
		b.Fatal(err)
	}
	return ix, src
}

func benchApp(b *testing.B, r core.Reducer, ix *chunk.Index, src chunk.Source) {
	b.Helper()
	b.SetBytes(ix.TotalBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(core.EngineConfig{Reducer: r, Workers: 1, UnitSize: ix.UnitSize}, ix, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKNNKernel(b *testing.B) {
	ix, src := benchPointsDataset(b, workload.UniformPoints{Seed: 2, Dim: 8}, 64_000)
	r, err := NewKNNReducer(knnParams(8, 10))
	if err != nil {
		b.Fatal(err)
	}
	benchApp(b, r, ix, src)
}

func BenchmarkKMeansKernel(b *testing.B) {
	ix, src := benchPointsDataset(b, workload.UniformPoints{Seed: 2, Dim: 8}, 64_000)
	centers := make([][]float64, 16)
	for k := range centers {
		centers[k] = make([]float64, 8)
		for d := range centers[k] {
			centers[k][d] = float64(k) / 16
		}
	}
	r, err := NewKMeansReducer(KMeansParams{K: 16, Dim: 8, Centers: centers})
	if err != nil {
		b.Fatal(err)
	}
	benchApp(b, r, ix, src)
}

// BenchmarkKMeansKernel's 16 collinear centers over uniform points are the
// pruned search's worst case: most points have several centers within twice
// their nearest distance. BenchmarkKMeansClusteredKernel is the
// kmeans-compute shape: K 32 over 32 blobs, centers after 5 Lloyd rounds.
func BenchmarkKMeansClusteredKernel(b *testing.B) {
	ix, src := benchPointsDataset(b, workload.ClusteredPoints{Seed: 2, Dim: 8, K: 32, Spread: 0.05}, 64_000)
	seeds, err := SeedCenters(ix, src, 32, 8)
	if err != nil {
		b.Fatal(err)
	}
	centers, _, err := KMeansIterate(ix, src, KMeansParams{K: 32, Dim: 8, Centers: seeds}, 1, 5, 0)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewKMeansReducer(KMeansParams{K: 32, Dim: 8, Centers: centers})
	if err != nil {
		b.Fatal(err)
	}
	benchApp(b, r, ix, src)
}

// BenchmarkNewKMeansReducer builds the search's tables, which every agent
// does once per query: K 32 as in kmeans-compute, and maxKMeansK.
func BenchmarkNewKMeansReducer(b *testing.B) {
	for _, k := range []int{32, maxKMeansK} {
		rng := rand.New(rand.NewSource(int64(k)))
		centers := make([][]float64, k)
		for j := range centers {
			centers[j] = make([]float64, 8)
			for i := range centers[j] {
				centers[j][i] = rng.Float64()
			}
		}
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewKMeansReducer(KMeansParams{K: k, Dim: 8, Centers: centers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPageRankKernel(b *testing.B) {
	gen := &workload.PowerLawGraph{Seed: 2, Nodes: 10_000, Edges: 256_000}
	ix, err := chunk.Layout("bg", 256_000, workload.EdgeUnitSize, 64_000, 8_000)
	if err != nil {
		b.Fatal(err)
	}
	src := chunk.NewMemSource(ix)
	if err := workload.Build(ix, gen, src); err != nil {
		b.Fatal(err)
	}
	r, err := NewPageRankReducer(PageRankParams{Nodes: 10_000, Damping: 0.85})
	if err != nil {
		b.Fatal(err)
	}
	benchApp(b, r, ix, src)
}

func BenchmarkHistogramKernel(b *testing.B) {
	ix, src := benchPointsDataset(b, workload.UniformPoints{Seed: 2, Dim: 8}, 64_000)
	r, err := NewHistogramReducer(HistogramParams{Bins: 64, Dim: 8})
	if err != nil {
		b.Fatal(err)
	}
	benchApp(b, r, ix, src)
}

func BenchmarkKNNCodec(b *testing.B) {
	r, err := NewKNNReducer(knnParams(8, 10))
	if err != nil {
		b.Fatal(err)
	}
	obj := r.NewObject().(*KNNObject)
	for i := 0; i < 10; i++ {
		obj.insert(Neighbor{Dist: float64(i), Point: make([]float64, 8)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc, err := r.Encode(obj)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPageRankCodec(b *testing.B) {
	r, err := NewPageRankReducer(PageRankParams{Nodes: 100_000, Damping: 0.85})
	if err != nil {
		b.Fatal(err)
	}
	// A cluster's half-fold leaves about 37 % of the entries zero (see
	// TestPageRankSyncBytes); an all-zero object would time only the bitmap.
	obj := r.NewObject().(*PageRankObject)
	rng := rand.New(rand.NewSource(1))
	for i := range obj.Incoming {
		if rng.Intn(100) >= 37 {
			obj.Incoming[i] = rng.Float64()
		}
	}
	b.SetBytes(8 * 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := r.Encode(obj)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

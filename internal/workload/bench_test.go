package workload

import (
	"testing"

	"repro/internal/chunk"
)

// Generator throughput: dataset materialization must not be the bottleneck
// when building multi-GB inputs for live runs.

func BenchmarkUniformPointsFill(b *testing.B) {
	g := UniformPoints{Seed: 1, Dim: 8}
	buf := make([]byte, 1<<20)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Fill(int64(i)*int64(len(buf)/g.UnitSize()), buf)
	}
}

func BenchmarkClusteredPointsFill(b *testing.B) {
	g := ClusteredPoints{Seed: 1, Dim: 8, K: 10, Spread: 0.02}
	buf := make([]byte, 1<<20)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Fill(int64(i)*int64(len(buf)/g.UnitSize()), buf)
	}
}

func BenchmarkPowerLawGraphFill(b *testing.B) {
	g := &PowerLawGraph{Seed: 1, Nodes: 100_000, Edges: 1 << 24}
	g.init() // exclude one-time degree derivation
	buf := make([]byte, 1<<20)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Fill(int64(i)*int64(len(buf)/EdgeUnitSize), buf)
	}
}

func BenchmarkDecodeEdge(b *testing.B) {
	g := &PowerLawGraph{Seed: 1, Nodes: 1000, Edges: 1 << 16}
	buf := make([]byte, 4096*EdgeUnitSize)
	g.Fill(0, buf)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		for off := 0; off < len(buf); off += EdgeUnitSize {
			e := DecodeEdge(buf[off:])
			if e.SrcOutDeg == 0 && e.Src != 0 {
				_ = e
			}
		}
	}
}

// discard is a chunk.Sink that keeps nothing.
type discard struct{}

func (discard) WriteFile(string, []byte) error { return nil }

// benchGraph is the live benchmark's pagerank dataset: 1 M nodes and the
// 2 M edges of 32 MiB.
func benchGraph() *PowerLawGraph {
	return &PowerLawGraph{Seed: 1, Nodes: 1 << 20, Edges: 32 << 20 / EdgeUnitSize}
}

// BenchmarkPowerLawGraphInit times the one-time CDF, guide table and
// degree replay of the pagerank benchmark's graph.
func BenchmarkPowerLawGraphInit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchGraph().init()
	}
}

// BenchmarkBuild times Build over 32 MiB in 16 files at the live
// benchmark's dataset shapes, the generation its set-up pays; the graph
// case includes its init. Run at -cpu 1,2 to see the stripes' speed-up.
func BenchmarkBuild(b *testing.B) {
	const size = 32 << 20
	for _, bc := range []struct {
		name string
		gen  func() Generator
	}{
		{"uniform", func() Generator { return UniformPoints{Seed: 1, Dim: 8} }},
		{"clustered", func() Generator { return ClusteredPoints{Seed: 1, Dim: 8, K: 32, Spread: 0.05} }},
		{"graph", func() Generator { return benchGraph() }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			us := bc.gen().UnitSize()
			units := int64(size / us)
			ix, err := chunk.Layout(bc.name, units, us, int(units/16), (1<<20)/us)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := Build(ix, bc.gen(), discard{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

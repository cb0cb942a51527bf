package workload

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/chunk"
)

func TestUniformPointsDeterministic(t *testing.T) {
	g := UniformPoints{Seed: 42, Dim: 3}
	a := make([]byte, 10*g.UnitSize())
	b := make([]byte, 10*g.UnitSize())
	g.Fill(100, a)
	g.Fill(100, b)
	if !bytes.Equal(a, b) {
		t.Error("same (seed, offset) produced different bytes")
	}
	g.Fill(101, b)
	if bytes.Equal(a, b) {
		t.Error("different offsets produced identical bytes")
	}
}

// TestFillOffsetConsistency: filling [0,n) in one call equals filling it in
// two arbitrary pieces — the property that makes per-file generation valid.
func TestFillOffsetConsistency(t *testing.T) {
	f := func(seed uint64, cutRaw uint8) bool {
		g := UniformPoints{Seed: seed, Dim: 2}
		const n = 64
		us := g.UnitSize()
		whole := make([]byte, n*us)
		g.Fill(0, whole)
		cut := int(cutRaw) % n
		head := make([]byte, cut*us)
		tail := make([]byte, (n-cut)*us)
		g.Fill(0, head)
		g.Fill(int64(cut), tail)
		return bytes.Equal(whole, append(head, tail...))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPointsInRange(t *testing.T) {
	g := UniformPoints{Seed: 7, Dim: 4}
	buf := make([]byte, 100*g.UnitSize())
	g.Fill(0, buf)
	pt := make([]float64, 4)
	for off := 0; off < len(buf); off += g.UnitSize() {
		DecodePoint(buf[off:off+g.UnitSize()], pt)
		for d, v := range pt {
			if v < 0 || v >= 1 {
				t.Fatalf("coordinate [%d]=%v out of [0,1)", d, v)
			}
		}
	}
}

func TestClusteredPointsNearCenters(t *testing.T) {
	g := ClusteredPoints{Seed: 11, Dim: 3, K: 4, Spread: 0.01}
	buf := make([]byte, 500*g.UnitSize())
	g.Fill(0, buf)
	centers := make([][]float64, g.K)
	for k := range centers {
		centers[k] = g.TrueCenter(k)
	}
	pt := make([]float64, g.Dim)
	for off := 0; off < len(buf); off += g.UnitSize() {
		DecodePoint(buf[off:off+g.UnitSize()], pt)
		best := 1e18
		for _, c := range centers {
			d := 0.0
			for i := range pt {
				d += (pt[i] - c[i]) * (pt[i] - c[i])
			}
			if d < best {
				best = d
			}
		}
		if best > 0.01 { // 0.1 in distance, 10 sigma
			t.Fatalf("point at offset %d is %v away from every center", off, best)
		}
	}
}

func TestPowerLawGraph(t *testing.T) {
	g := &PowerLawGraph{Seed: 5, Nodes: 50, Edges: 2000}
	buf := make([]byte, int(g.Edges)*EdgeUnitSize)
	g.Fill(0, buf)
	counted := make([]uint32, g.Nodes)
	for off := 0; off < len(buf); off += EdgeUnitSize {
		e := DecodeEdge(buf[off:])
		if int(e.Src) >= g.Nodes || int(e.Dst) >= g.Nodes {
			t.Fatalf("edge %v out of node range", e)
		}
		counted[e.Src]++
		if e.SrcOutDeg != g.OutDegree(int(e.Src)) {
			t.Fatalf("edge carries outdeg %d, generator says %d", e.SrcOutDeg, g.OutDegree(int(e.Src)))
		}
	}
	var total uint32
	for n, c := range counted {
		if c != g.OutDegree(n) {
			t.Errorf("node %d: counted %d edges, OutDegree says %d", n, c, g.OutDegree(n))
		}
		total += c
	}
	if int64(total) != g.Edges {
		t.Errorf("total edges %d, want %d", total, g.Edges)
	}
	// Power-law shape: node 0 should out-rank the median node heavily.
	if counted[0] <= counted[g.Nodes/2] {
		t.Errorf("no skew: deg(0)=%d deg(mid)=%d", counted[0], counted[g.Nodes/2])
	}
}

func TestBuild(t *testing.T) {
	g := UniformPoints{Seed: 9, Dim: 2}
	ix, err := chunk.Layout("pts", 100, g.UnitSize(), 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	src := chunk.NewMemSource(ix)
	if err := Build(ix, g, src); err != nil {
		t.Fatalf("Build: %v", err)
	}
	// The chunk at global unit offset 40 (file 1, chunk 0) must equal a
	// direct Fill at that offset.
	ref := ix.Files[1].Chunks[0]
	got, err := src.ReadChunk(ref)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, ref.Size)
	g.Fill(40, want)
	if !bytes.Equal(got, want) {
		t.Error("built file content diverges from direct generation")
	}
	// Unit-size mismatch is rejected.
	bad := UniformPoints{Seed: 9, Dim: 3}
	if err := Build(ix, bad, src); err == nil {
		t.Error("unit-size mismatch accepted")
	}
}

func TestRNGUniformish(t *testing.T) {
	r := rng{seed: 123}
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		sum += r.float01(uint64(i))
	}
	mean := sum / n
	if mean < 0.45 || mean > 0.55 {
		t.Errorf("float01 mean = %v, want ≈0.5", mean)
	}
}

// fileSink records each file Build delivers, in delivery order.
type fileSink struct {
	names []string
	files [][]byte
}

func (s *fileSink) WriteFile(name string, data []byte) error {
	s.names = append(s.names, name)
	s.files = append(s.files, data)
	return nil
}

// TestBuildBytesIndependentOfProcs: Build stripes each file over GOMAXPROCS
// goroutines, so every core count must deliver the files, in order, with
// the bytes one serial Fill per file writes. The unit counts divide neither
// into the files nor into the stripes, and the last layout has fewer units
// per file than stripes.
func TestBuildBytesIndependentOfProcs(t *testing.T) {
	gens := map[string]func() Generator{
		"uniform":   func() Generator { return UniformPoints{Seed: 5, Dim: 3} },
		"clustered": func() Generator { return ClusteredPoints{Seed: 5, Dim: 5, K: 7, Spread: 0.05} },
		"graph":     func() Generator { return &PowerLawGraph{Seed: 5, Nodes: 777, Edges: 10007} },
	}
	layouts := []struct{ units, fileUnits, chunkUnits int }{
		{10007, 1237, 101},
		{5, 2, 1},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, newGen := range gens {
		for _, l := range layouts {
			ix, err := chunk.Layout(name, int64(l.units), newGen().UnitSize(), l.fileUnits, l.chunkUnits)
			if err != nil {
				t.Fatal(err)
			}
			serial := newGen()
			for _, procs := range []int{1, 2, 3, 8} {
				runtime.GOMAXPROCS(procs)
				var sink fileSink
				if err := Build(ix, newGen(), &sink); err != nil {
					t.Fatal(err)
				}
				if len(sink.files) != len(ix.Files) {
					t.Fatalf("%s/%d units, %d procs: %d files delivered, want %d", name, l.units, procs, len(sink.files), len(ix.Files))
				}
				var start int64
				for i, f := range ix.Files {
					want := make([]byte, f.Size)
					serial.Fill(start, want)
					if sink.names[i] != f.Name || !bytes.Equal(sink.files[i], want) {
						t.Errorf("%s/%d units, %d procs: file %d (%s) differs from a serial Fill", name, l.units, procs, i, sink.names[i])
					}
					start += f.Size / int64(ix.UnitSize)
				}
			}
		}
	}
}

// TestGeneratorsPinnedBytes pins the SHA-256 of a small dataset per
// generator, so a change that alters the generated data fails here before
// it moves a benchmark or a golden table. The graph cases cover the default
// and a non-default Zipf exponent.
func TestGeneratorsPinnedBytes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     Generator
		units int
		want  string
	}{
		{"uniform", UniformPoints{Seed: 3, Dim: 8}, 4099,
			"2db7040a45140935afd4932d097221d3ea5d402e8900db30991dd5da23f39188"},
		{"clustered", ClusteredPoints{Seed: 3, Dim: 8, K: 32, Spread: 0.05}, 4099,
			"d945b06c2f2eaef9de51e51dfc8b6f315f592b092ef3a95dbc377b22e4c8f566"},
		{"graph", &PowerLawGraph{Seed: 3, Nodes: 1 << 16, Edges: 20011}, 20011,
			"2ff210f8343a9840a09a893fe49e1dc31e8bde4ba00e3187791a67b671ca1676"},
		{"graph alpha 1.5", &PowerLawGraph{Seed: 4, Nodes: 1000, Edges: 4099, Alpha: 1.5}, 4099,
			"fdf5a40a0038d5b74d97376e85f2463f51d2cd547617b8fdcc426b2fed15b094"},
	} {
		buf := make([]byte, tc.units*tc.g.UnitSize())
		tc.g.Fill(0, buf)
		if got := fmt.Sprintf("%x", sha256.Sum256(buf)); got != tc.want {
			t.Errorf("%s: sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}

// bisectSource is the reference inverse-CDF lookup: the smallest i with
// cum[i] ≥ u, by bisection over the whole CDF.
func bisectSource(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestPickSourceMatchesBisection: the guide-table lookup returns exactly
// what bisection returns, on random draws and at the edges — u = 0, u at
// each cum[i] of the small graphs and one float either side of it, the
// largest value float01 returns, and u = 1, where the bucket clamp acts.
func TestPickSourceMatchesBisection(t *testing.T) {
	const draws = 1 << 20
	largest := float64(1<<53-1) / float64(1<<53)
	for _, nodes := range []int{1, 2, 3, 1000, 1 << 20} {
		for _, alpha := range []float64{0, 0.5, 1.5} {
			g := &PowerLawGraph{Seed: uint64(nodes), Nodes: nodes, Alpha: alpha}
			g.init()
			r := rng{seed: g.Seed}
			for e := uint64(0); e < draws; e++ {
				if got, want := g.pickSource(r, e), bisectSource(g.cum, r.float01(e*2+1)); got != want {
					t.Fatalf("nodes %d alpha %v edge %d: pickSource %d, bisection %d", nodes, alpha, e, got, want)
				}
			}
			edges := []float64{0, largest, 1}
			if nodes <= 1000 {
				for _, c := range g.cum {
					edges = append(edges, c, math.Nextafter(c, 0), math.Nextafter(c, 2))
				}
			}
			for _, u := range edges {
				if u > 1 {
					continue
				}
				if got, want := g.sample(u), bisectSource(g.cum, u); got != want {
					t.Fatalf("nodes %d alpha %v u %v: sample %d, bisection %d", nodes, alpha, u, got, want)
				}
			}
		}
	}
}

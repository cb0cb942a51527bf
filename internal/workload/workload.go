// Package workload generates the synthetic datasets that stand in for the
// paper's 12 GB inputs: multidimensional point clouds for k-nearest
// neighbors and k-means, and power-law web graphs for PageRank.
//
// Generation is deterministic and counter-based: every data unit's content
// is a pure function of (seed, global unit index), so files can be produced
// independently, in any order, and reproduced exactly on every run — the
// substitute for downloading a fixed production dataset.
package workload

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/chunk"
)

// Generator produces dataset bytes unit by unit.
type Generator interface {
	// UnitSize returns the fixed size in bytes of one data unit.
	UnitSize() int
	// Fill writes len(buf)/UnitSize() consecutive units into buf, starting
	// at the given global unit index. len(buf) must be a multiple of
	// UnitSize().
	Fill(startUnit int64, buf []byte)
}

// Build materializes the dataset described by ix using g, delivering each
// file to sink, one call per file in file order. Each file is filled in
// GOMAXPROCS stripes at once; since every unit is a pure function of (seed,
// index), the bytes are those of one Fill over the file. It verifies that
// g's unit size matches the index.
func Build(ix *chunk.Index, g Generator, sink chunk.Sink) error {
	if g.UnitSize() != ix.UnitSize {
		return fmt.Errorf("workload: generator unit size %d != index unit size %d", g.UnitSize(), ix.UnitSize)
	}
	procs := runtime.GOMAXPROCS(0)
	var start int64
	for _, f := range ix.Files {
		buf := make([]byte, f.Size)
		fillStriped(g, start, buf, procs)
		if err := sink.WriteFile(f.Name, buf); err != nil {
			return fmt.Errorf("workload: writing %s: %w", f.Name, err)
		}
		start += f.Size / int64(ix.UnitSize)
	}
	return nil
}

// fillStriped is g.Fill(start, buf) cut at unit boundaries into up to procs
// stripes, each filled by its own goroutine; it returns once all are done.
func fillStriped(g Generator, start int64, buf []byte, procs int) {
	us := g.UnitSize()
	units := len(buf) / us
	procs = min(procs, units)
	if procs <= 1 {
		g.Fill(start, buf)
		return
	}
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		lo, hi := units*p/procs, units*(p+1)/procs
		wg.Add(1)
		go func() {
			g.Fill(start+int64(lo), buf[lo*us:hi*us])
			wg.Done()
		}()
	}
	wg.Wait()
}

// ---------------------------------------------------------------------------
// Counter-based pseudo-randomness (SplitMix64): hash(seed, counter) gives an
// independent 64-bit stream value for any counter without sequential state.

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a keyed counter-based generator.
type rng struct{ seed uint64 }

func (r rng) u64(counter uint64) uint64 { return splitmix64(r.seed ^ splitmix64(counter)) }

// float01 maps a counter to [0,1).
func (r rng) float01(counter uint64) float64 {
	return float64(r.u64(counter)>>11) / float64(1<<53)
}

// norm maps a counter pair to an approximately standard-normal value using
// the Box-Muller transform.
func (r rng) norm(counter uint64) float64 {
	u1 := r.float01(counter*2 + 1)
	u2 := r.float01(counter*2 + 2)
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// ---------------------------------------------------------------------------
// Point datasets (kNN, k-means).

// PointDim point layout: Dim little-endian float32 coordinates per unit.

// UniformPoints generates points uniform in [0,1)^Dim.
type UniformPoints struct {
	Seed uint64
	Dim  int
}

// UnitSize implements Generator.
func (g UniformPoints) UnitSize() int { return 4 * g.Dim }

// Fill implements Generator.
func (g UniformPoints) Fill(startUnit int64, buf []byte) {
	us := g.UnitSize()
	r := rng{seed: g.Seed}
	for off := 0; off < len(buf); off += us {
		unit := uint64(startUnit) + uint64(off/us)
		for d := 0; d < g.Dim; d++ {
			v := float32(r.float01(unit*uint64(g.Dim) + uint64(d)))
			binary.LittleEndian.PutUint32(buf[off+4*d:], math.Float32bits(v))
		}
	}
}

// ClusteredPoints generates points drawn from K Gaussian blobs whose true
// centers are themselves deterministic in [0,1)^Dim — the natural input for
// k-means, where convergence behaviour matters.
type ClusteredPoints struct {
	Seed   uint64
	Dim    int
	K      int     // number of true clusters
	Spread float64 // standard deviation of each blob
}

// UnitSize implements Generator.
func (g ClusteredPoints) UnitSize() int { return 4 * g.Dim }

// TrueCenter returns the deterministic center of blob k.
func (g ClusteredPoints) TrueCenter(k int) []float64 {
	c := make([]float64, g.Dim)
	g.center(k, c)
	return c
}

// center writes blob k's center into c (len(c) == Dim).
func (g ClusteredPoints) center(k int, c []float64) {
	r := rng{seed: g.Seed ^ 0xc105e75}
	for d := range c {
		c[d] = r.float01(uint64(k)*uint64(g.Dim) + uint64(d))
	}
}

// Fill implements Generator.
func (g ClusteredPoints) Fill(startUnit int64, buf []byte) {
	us := g.UnitSize()
	r := rng{seed: g.Seed}
	centers := make([]float64, g.K*g.Dim)
	for k := 0; k < g.K; k++ {
		g.center(k, centers[k*g.Dim:(k+1)*g.Dim])
	}
	for off := 0; off < len(buf); off += us {
		unit := uint64(startUnit) + uint64(off/us)
		k := int(r.u64(unit) % uint64(g.K))
		center := centers[k*g.Dim : (k+1)*g.Dim]
		for d := 0; d < g.Dim; d++ {
			v := center[d] + g.Spread*r.norm(unit*uint64(g.Dim)+uint64(d))
			binary.LittleEndian.PutUint32(buf[off+4*d:], math.Float32bits(float32(v)))
		}
	}
}

// DecodePoint decodes one point unit into dst (len(dst) == dim).
func DecodePoint(unit []byte, dst []float64) {
	for d := range dst {
		dst[d] = float64(math.Float32frombits(binary.LittleEndian.Uint32(unit[4*d:])))
	}
}

// ---------------------------------------------------------------------------
// Web graphs (PageRank).

// EdgeUnitSize is the fixed size of one edge record: src, dst, and the
// out-degree of src, each uint32, plus padding to 16 bytes so units align.
const EdgeUnitSize = 16

// PowerLawGraph generates a directed graph whose edge sources follow a
// Zipf-like distribution (a few hub pages emit most links), the standard
// web-graph shape. Each unit is one edge record carrying the source's total
// out-degree, which lets a PageRank iteration run in a single pass over the
// edges.
type PowerLawGraph struct {
	Seed  uint64
	Nodes int
	Edges int64
	// Alpha is the Zipf exponent for source popularity; 0 defaults to 0.8.
	Alpha float64

	once  sync.Once
	cum   []float64 // cumulative source-selection weights
	guide []int32   // guide[j]: first i whose cum[i] lands in bucket j or later
	deg   []uint32  // out-degree per node, implied by the edge stream
}

// UnitSize implements Generator.
func (g *PowerLawGraph) UnitSize() int { return EdgeUnitSize }

func (g *PowerLawGraph) init() {
	g.once.Do(func() {
		alpha := g.Alpha
		if alpha == 0 {
			alpha = 0.8
		}
		g.cum = make([]float64, g.Nodes)
		total := 0.0
		for i := 0; i < g.Nodes; i++ {
			total += 1 / math.Pow(float64(i+1), alpha)
			g.cum[i] = total
		}
		for i := range g.cum {
			g.cum[i] /= total
		}
		g.guide = make([]int32, g.Nodes)
		i := 0
		for j := range g.guide {
			for g.bucket(g.cum[i]) < j {
				i++
			}
			g.guide[j] = int32(i)
		}
		// Derive the exact out-degree sequence by replaying source draws.
		g.deg = make([]uint32, g.Nodes)
		r := rng{seed: g.Seed}
		for e := int64(0); e < g.Edges; e++ {
			g.deg[g.pickSource(r, uint64(e))]++
		}
	})
}

// pickSource maps edge counter e to a source node via inverse-CDF sampling.
func (g *PowerLawGraph) pickSource(r rng, e uint64) int {
	return g.sample(r.float01(e*2 + 1))
}

// sample returns the smallest i with cum[i] ≥ u, for u in [0,1]. It starts
// at u's guide entry and steps forward: bucket is monotone in u, so every
// node before guide[bucket(u)] has cum < u, and the last cum is exactly 1,
// so the walk stops by the last node. There are as many buckets as nodes,
// so a walk takes O(1) steps on average.
func (g *PowerLawGraph) sample(u float64) int {
	i := int(g.guide[g.bucket(u)])
	for g.cum[i] < u {
		i++
	}
	return i
}

// bucket maps a CDF value in [0,1] to its guide entry, ⌊u·Nodes⌋ clamped to
// the last one.
func (g *PowerLawGraph) bucket(u float64) int {
	return min(int(u*float64(len(g.cum))), len(g.cum)-1)
}

// OutDegree returns node n's out-degree in the generated graph.
func (g *PowerLawGraph) OutDegree(n int) uint32 {
	g.init()
	return g.deg[n]
}

// Fill implements Generator.
func (g *PowerLawGraph) Fill(startUnit int64, buf []byte) {
	g.init()
	r := rng{seed: g.Seed}
	for off := 0; off < len(buf); off += EdgeUnitSize {
		e := uint64(startUnit) + uint64(off/EdgeUnitSize)
		src := g.pickSource(r, e)
		dst := int(r.u64(e*2+2) % uint64(g.Nodes))
		binary.LittleEndian.PutUint32(buf[off+0:], uint32(src))
		binary.LittleEndian.PutUint32(buf[off+4:], uint32(dst))
		binary.LittleEndian.PutUint32(buf[off+8:], g.deg[src])
		binary.LittleEndian.PutUint32(buf[off+12:], 0)
	}
}

// Edge is a decoded edge record.
type Edge struct {
	Src, Dst  uint32
	SrcOutDeg uint32
}

// DecodeEdge decodes one edge unit.
func DecodeEdge(unit []byte) Edge {
	return Edge{
		Src:       binary.LittleEndian.Uint32(unit[0:]),
		Dst:       binary.LittleEndian.Uint32(unit[4:]),
		SrcOutDeg: binary.LittleEndian.Uint32(unit[8:]),
	}
}

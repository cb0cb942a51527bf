package apps

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/workload"
)

// buildPoints materializes a small point dataset and returns the decoded
// points for reference computations.
func buildPoints(t testing.TB, gen workload.Generator, dim int, units int64) (*chunk.Index, *chunk.MemSource, [][]float64) {
	t.Helper()
	ix, err := chunk.Layout("pts", units, gen.UnitSize(), 200, 50)
	if err != nil {
		t.Fatal(err)
	}
	src := chunk.NewMemSource(ix)
	if err := workload.Build(ix, gen, src); err != nil {
		t.Fatal(err)
	}
	var pts [][]float64
	for _, ref := range ix.AllRefs() {
		data, err := src.ReadChunk(ref)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); off += gen.UnitSize() {
			pt := make([]float64, dim)
			workload.DecodePoint(data[off:off+gen.UnitSize()], pt)
			pts = append(pts, pt)
		}
	}
	return ix, src, pts
}

// --------------------------------------------------------------------- kNN

func knnParams(dim, k int) KNNParams {
	q := make([]float64, dim)
	for i := range q {
		q[i] = 0.5
	}
	return KNNParams{K: k, Dim: dim, Query: q}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	gen := workload.UniformPoints{Seed: 21, Dim: 3}
	ix, src, pts := buildPoints(t, gen, 3, 600)
	p := knnParams(3, 10)
	r, err := NewKNNReducer(p)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := core.Run(core.EngineConfig{Reducer: r, Workers: 4, UnitSize: ix.UnitSize}, ix, src)
	if err != nil {
		t.Fatal(err)
	}
	got := obj.(*KNNObject).Best
	want := BruteForceKNN(pts, p.Query, p.K)
	if len(got) != p.K {
		t.Fatalf("got %d neighbors, want %d", len(got), p.K)
	}
	if what, ok := sameNeighbors(got, want); !ok {
		t.Errorf("%s differs from the brute force:\n got  %v\n want %v", what, got, want)
	}
}

func TestKNNObjectInsertProperty(t *testing.T) {
	// The k-best list stays sorted and bounded under arbitrary insertions.
	f := func(dists []float64, kRaw uint8) bool {
		k := int(kRaw%10) + 1
		obj := &KNNObject{K: k}
		for _, d := range dists {
			obj.insert(Neighbor{Dist: math.Abs(d)})
		}
		if len(obj.Best) > k {
			return false
		}
		for i := 1; i < len(obj.Best); i++ {
			if obj.Best[i].Dist < obj.Best[i-1].Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKNNCodecRoundTrip(t *testing.T) {
	p := knnParams(2, 3)
	r, _ := NewKNNReducer(p)
	obj := r.NewObject().(*KNNObject)
	obj.insert(Neighbor{Dist: 0.5, Point: []float64{0.1, 0.2}})
	obj.insert(Neighbor{Dist: 0.25, Point: []float64{0.3, 0.4}})
	enc, err := r.Encode(obj)
	if err != nil {
		t.Fatal(err)
	}
	back, err := r.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	b := back.(*KNNObject)
	if len(b.Best) != 2 || b.Best[0].Dist != 0.25 || b.Best[0].Point[1] != 0.4 {
		t.Errorf("round trip = %+v", b.Best)
	}
	if _, err := r.Decode(enc[:len(enc)-1]); err == nil {
		t.Error("truncated object accepted")
	}
	if _, err := r.Decode(nil); err == nil {
		t.Error("empty object accepted")
	}
}

func TestKNNParamsValidation(t *testing.T) {
	bad := []KNNParams{
		{K: 0, Dim: 2, Query: []float64{0, 0}},
		{K: 1, Dim: 0, Query: nil},
		{K: 1, Dim: 2, Query: []float64{0}},
		{K: 1, Dim: 2, Query: []float64{0, math.NaN()}},
		{K: 1, Dim: 1, Query: []float64{math.Inf(-1)}},
	}
	for i, p := range bad {
		if _, err := NewKNNReducer(p); err == nil {
			t.Errorf("params %d accepted: %+v", i, p)
		}
	}
}

func TestKNNRegistry(t *testing.T) {
	p := knnParams(2, 5)
	enc, err := EncodeKNNParams(p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.NewReducer(KNNReducerName, enc)
	if err != nil {
		t.Fatal(err)
	}
	if r.(*KNNReducer).Params.K != 5 {
		t.Errorf("registry params = %+v", r.(*KNNReducer).Params)
	}
	if _, err := core.NewReducer(KNNReducerName, []byte("garbage")); err == nil {
		t.Error("garbage params accepted")
	}
}

func TestKNNMRMatchesGR(t *testing.T) {
	gen := workload.UniformPoints{Seed: 8, Dim: 2}
	ix, src, pts := buildPoints(t, gen, 2, 400)
	p := knnParams(2, 7)
	want := BruteForceKNN(pts, p.Query, p.K)
	for _, combine := range []bool{false, true} {
		job, err := KNNMRJob(p, combine)
		if err != nil {
			t.Fatal(err)
		}
		job.Workers = 3
		res, err := mapreduce.Run(job, ix, src)
		if err != nil {
			t.Fatalf("combine=%v: %v", combine, err)
		}
		got := res.Output["knn"].([]Neighbor)
		if len(got) != p.K {
			t.Fatalf("combine=%v: %d neighbors", combine, len(got))
		}
		for i := range want {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-12 {
				t.Errorf("combine=%v: neighbor %d dist %v, want %v", combine, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

// ------------------------------------------------------------------ kmeans

func TestKMeansConvergesToTrueCenters(t *testing.T) {
	gen := workload.ClusteredPoints{Seed: 31, Dim: 2, K: 3, Spread: 0.005}
	ix, src, _ := buildPoints(t, gen, 2, 900)
	seeds, err := SeedCenters(ix, src, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	centers, sse, err := KMeansIterate(ix, src, KMeansParams{K: 3, Dim: 2, Centers: seeds}, 4, 30, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if sse <= 0 {
		t.Errorf("SSE = %v", sse)
	}
	// Every learned center must be close to some true blob center.
	for ci, c := range centers {
		best := math.MaxFloat64
		for k := 0; k < 3; k++ {
			tc := gen.TrueCenter(k)
			d := 0.0
			for i := range c {
				d += (c[i] - tc[i]) * (c[i] - tc[i])
			}
			if d < best {
				best = d
			}
		}
		if best > 0.01 {
			t.Errorf("center %d = %v is %v² away from every true center", ci, c, best)
		}
	}
}

func TestKMeansCodecRoundTrip(t *testing.T) {
	p := KMeansParams{K: 2, Dim: 3, Centers: [][]float64{{0, 0, 0}, {1, 1, 1}}}
	r, err := NewKMeansReducer(p)
	if err != nil {
		t.Fatal(err)
	}
	obj := r.NewObject().(*KMeansObject)
	obj.Sums[1][2] = 4.5
	obj.Counts[1] = 9
	obj.SSE = 2.25
	enc, err := r.Encode(obj)
	if err != nil {
		t.Fatal(err)
	}
	back, err := r.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	b := back.(*KMeansObject)
	if b.Sums[1][2] != 4.5 || b.Counts[1] != 9 || b.SSE != 2.25 {
		t.Errorf("round trip = %+v", b)
	}
	if _, err := r.Decode(enc[:8]); err == nil {
		t.Error("truncated object accepted")
	}
}

func TestNextCentersEmptyCluster(t *testing.T) {
	obj := &KMeansObject{
		Sums:   [][]float64{{10, 20}, {0, 0}},
		Counts: []int64{5, 0},
	}
	prev := [][]float64{{9, 9}, {7, 8}}
	next := NextCenters(obj, prev)
	if next[0][0] != 2 || next[0][1] != 4 {
		t.Errorf("center 0 = %v", next[0])
	}
	if next[1][0] != 7 || next[1][1] != 8 {
		t.Errorf("empty cluster drifted: %v", next[1])
	}
}

func TestKMeansMRMatchesGR(t *testing.T) {
	gen := workload.ClusteredPoints{Seed: 5, Dim: 2, K: 2, Spread: 0.02}
	ix, src, _ := buildPoints(t, gen, 2, 500)
	p := KMeansParams{K: 2, Dim: 2, Centers: [][]float64{{0.2, 0.2}, {0.8, 0.8}}}
	r, err := NewKMeansReducer(p)
	if err != nil {
		t.Fatal(err)
	}
	grObj, err := core.Run(core.EngineConfig{Reducer: r, Workers: 2, UnitSize: ix.UnitSize}, ix, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, combine := range []bool{false, true} {
		job, err := KMeansMRJob(p, combine)
		if err != nil {
			t.Fatal(err)
		}
		job.Workers = 2
		res, err := mapreduce.Run(job, ix, src)
		if err != nil {
			t.Fatal(err)
		}
		mrObj, err := KMeansFromMR(res.Output, p)
		if err != nil {
			t.Fatal(err)
		}
		g := grObj.(*KMeansObject)
		for k := 0; k < p.K; k++ {
			if g.Counts[k] != mrObj.Counts[k] {
				t.Errorf("combine=%v cluster %d: GR count %d, MR count %d", combine, k, g.Counts[k], mrObj.Counts[k])
			}
			for i := 0; i < p.Dim; i++ {
				if math.Abs(g.Sums[k][i]-mrObj.Sums[k][i]) > 1e-6 {
					t.Errorf("combine=%v cluster %d dim %d: GR %v, MR %v", combine, k, i, g.Sums[k][i], mrObj.Sums[k][i])
				}
			}
		}
	}
}

func TestKMeansRegistryAndValidation(t *testing.T) {
	p := KMeansParams{K: 2, Dim: 2, Centers: [][]float64{{0, 0}, {1, 1}}}
	enc, err := EncodeKMeansParams(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewReducer(KMeansReducerName, enc); err != nil {
		t.Fatal(err)
	}
	bad := []KMeansParams{
		{K: 0, Dim: 2},
		{K: 2, Dim: 0},
		{K: 2, Dim: 2, Centers: [][]float64{{0, 0}}},
		{K: 1, Dim: 2, Centers: [][]float64{{0}}},
		{K: 1, Dim: 2, Centers: [][]float64{{0, math.NaN()}}},
		{K: 2, Dim: 1, Centers: [][]float64{{0}, {math.Inf(-1)}}},
		{K: maxKMeansK + 1, Dim: 1},
		{K: 1, Dim: maxKMeansDim + 1},
	}
	for i, p := range bad {
		if _, err := NewKMeansReducer(p); err == nil {
			t.Errorf("params %d accepted", i)
		}
	}
}

// ---------------------------------------------------------------- pagerank

// refPageRank computes one iteration directly from the decoded edges.
func refPageRank(edges []workload.Edge, prev []float64, nodes int, damping float64) []float64 {
	incoming := make([]float64, nodes)
	for _, e := range edges {
		incoming[e.Dst] += prev[e.Src] / float64(e.SrcOutDeg)
	}
	out := make([]float64, nodes)
	for i := range out {
		out[i] = (1-damping)/float64(nodes) + damping*incoming[i]
	}
	return out
}

func buildGraph(t testing.TB, nodes int, edges int64) (*chunk.Index, *chunk.MemSource, []workload.Edge) {
	t.Helper()
	gen := &workload.PowerLawGraph{Seed: 77, Nodes: nodes, Edges: edges}
	ix, err := chunk.Layout("graph", edges, workload.EdgeUnitSize, 500, 100)
	if err != nil {
		t.Fatal(err)
	}
	src := chunk.NewMemSource(ix)
	if err := workload.Build(ix, gen, src); err != nil {
		t.Fatal(err)
	}
	var all []workload.Edge
	for _, ref := range ix.AllRefs() {
		data, err := src.ReadChunk(ref)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); off += workload.EdgeUnitSize {
			all = append(all, workload.DecodeEdge(data[off:]))
		}
	}
	return ix, src, all
}

func TestPageRankMatchesReference(t *testing.T) {
	const nodes = 40
	ix, src, edges := buildGraph(t, nodes, 1500)
	p := PageRankParams{Nodes: nodes, Damping: 0.85}
	r, err := NewPageRankReducer(p)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := core.Run(core.EngineConfig{Reducer: r, Workers: 4, UnitSize: ix.UnitSize}, ix, src)
	if err != nil {
		t.Fatal(err)
	}
	got := NextRanks(obj.(*PageRankObject), p.Damping)
	prev := make([]float64, nodes)
	for i := range prev {
		prev[i] = 1 / float64(nodes)
	}
	want := refPageRank(edges, prev, nodes, p.Damping)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("rank[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Hubs should out-rank the tail after one iteration from uniform?
	// In-degree is uniform here, so just check mass is positive everywhere.
	for i, v := range got {
		if v <= 0 {
			t.Errorf("rank[%d] = %v", i, v)
		}
	}
}

func TestPageRankSecondIteration(t *testing.T) {
	const nodes = 25
	ix, src, edges := buildGraph(t, nodes, 800)
	p1 := PageRankParams{Nodes: nodes, Damping: 0.85}
	r1, _ := NewPageRankReducer(p1)
	obj1, err := core.Run(core.EngineConfig{Reducer: r1, Workers: 2, UnitSize: ix.UnitSize}, ix, src)
	if err != nil {
		t.Fatal(err)
	}
	ranks1 := NextRanks(obj1.(*PageRankObject), p1.Damping)

	p2 := PageRankParams{Nodes: nodes, Damping: 0.85, Ranks: ranks1}
	r2, err := NewPageRankReducer(p2)
	if err != nil {
		t.Fatal(err)
	}
	obj2, err := core.Run(core.EngineConfig{Reducer: r2, Workers: 2, UnitSize: ix.UnitSize}, ix, src)
	if err != nil {
		t.Fatal(err)
	}
	got := NextRanks(obj2.(*PageRankObject), p2.Damping)
	prev := make([]float64, nodes)
	for i := range prev {
		prev[i] = 1 / float64(nodes)
	}
	want := refPageRank(edges, refPageRank(edges, prev, nodes, 0.85), nodes, 0.85)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("iter-2 rank[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestPageRankCodecRoundTrip: the reduction object travels zero-suppressed
// and comes back bit for bit, whatever the mix of zeros, -0, NaN and Inf.
func TestPageRankCodecRoundTrip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vectors := map[string][]float64{
		"identity":   make([]float64, 13),
		"one-stored": {0, 0, 0, 0.125, 0},
		"all-stored": {1, 2, 3, 4, 5, 6, 7, 8},
		"specials":   {0, negZero, math.NaN(), 0, math.Inf(1), math.Inf(-1), 0, 0, 0, 1e-300, 0},
	}
	for name, in := range vectors {
		r, err := NewPageRankReducer(PageRankParams{Nodes: len(in), Damping: 0.85})
		if err != nil {
			t.Fatal(err)
		}
		enc, err := r.Encode(&PageRankObject{Incoming: in})
		if err != nil {
			t.Fatal(err)
		}
		back, err := r.Decode(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := back.(*PageRankObject).Incoming
		if len(got) != len(in) {
			t.Fatalf("%s: decoded %d entries, want %d", name, len(got), len(in))
		}
		for i := range in {
			if math.Float64bits(got[i]) != math.Float64bits(in[i]) {
				t.Errorf("%s: entry %d = %x, want %x", name, i, math.Float64bits(got[i]), math.Float64bits(in[i]))
			}
		}
		// A decoded object merges like the original: it is a real vector,
		// not a view of the wire bytes.
		if err := r.GlobalReduce(back, r.NewObject()); err != nil {
			t.Errorf("%s: merging into decoded object: %v", name, err)
		}
	}
}

// TestPageRankObjectRejectsHostileInput: a reduction object whose declared
// length is not this query's Nodes, or that is cut short or padded, is
// refused with core.ErrBadPayload.
func TestPageRankObjectRejectsHostileInput(t *testing.T) {
	r, _ := NewPageRankReducer(PageRankParams{Nodes: 10, Damping: 0.85})
	obj := r.NewObject().(*PageRankObject)
	obj.Incoming[3], obj.Incoming[9] = 0.125, 0.5
	enc, _ := r.Encode(obj)
	other, _ := NewPageRankReducer(PageRankParams{Nodes: 11, Damping: 0.85})
	cases := map[string]struct {
		r    *PageRankReducer
		data []byte
	}{
		"empty":            {r, nil},
		"truncated":        {r, enc[:len(enc)-1]},
		"header-only":      {r, enc[:10]},
		"trailing":         {r, append(append([]byte(nil), enc...), 0)},
		"other-node-count": {other, enc},
		"old-dense-layout": {r, make([]byte, 80)},
	}
	for name, c := range cases {
		if _, err := c.r.Decode(c.data); !errors.Is(err, core.ErrBadPayload) {
			t.Errorf("%s: err = %v, want core.ErrBadPayload", name, err)
		}
	}
}

// TestPageRankSyncBytes gates the traffic the codec exists to cut, as
// deterministic byte counts on a seeded graph shaped like the benchmark's
// (two edges per node, uniform destinations): a cluster that folded half
// the edges has touched about 63 % of the nodes, and after a full round
// about 13 % of the ranks are still the base value.
func TestPageRankSyncBytes(t *testing.T) {
	const nodes = 1 << 14
	gen := &workload.PowerLawGraph{Seed: 5, Nodes: nodes, Edges: 2 * nodes}
	p := PageRankParams{Nodes: nodes, Damping: 0.85}
	r, _ := NewPageRankReducer(p)
	fold := func(obj core.Object, first, count int64) {
		t.Helper()
		buf := make([]byte, count*workload.EdgeUnitSize)
		gen.Fill(first, buf)
		if err := r.LocalReduceGroup(obj, buf, workload.EdgeUnitSize); err != nil {
			t.Fatal(err)
		}
	}
	half := r.NewObject()
	fold(half, 0, nodes)
	enc, _ := r.Encode(half)
	if dense := 8 * nodes; float64(len(enc)) > 0.70*float64(dense) {
		t.Errorf("half-fold object is %d bytes, %.2f of the dense %d; want at most 0.70", len(enc), float64(len(enc))/float64(dense), dense)
	}

	fold(half, nodes, nodes) // the other cluster's share: now the global object
	p.Ranks = NextRanks(half.(*PageRankObject), p.Damping)
	params, _ := EncodePageRankParams(p)
	if dense := 8 * nodes; float64(len(params)) > 0.90*float64(dense) {
		t.Errorf("next round's params are %d bytes, %.2f of the dense ranks (%d); want at most 0.90", len(params), float64(len(params))/float64(dense), dense)
	}
}

func TestPageRankValidation(t *testing.T) {
	bad := []PageRankParams{
		{Nodes: 0, Damping: 0.85},
		{Nodes: 5, Damping: 0},
		{Nodes: 5, Damping: 1},
		{Nodes: 5, Damping: 0.85, Ranks: []float64{1}},
	}
	for i, p := range bad {
		if _, err := NewPageRankReducer(p); err == nil {
			t.Errorf("params %d accepted", i)
		}
	}
	// Bad edges are rejected.
	r, _ := NewPageRankReducer(PageRankParams{Nodes: 2, Damping: 0.85})
	unit := make([]byte, workload.EdgeUnitSize)
	unit[0] = 9 // src out of range
	if err := r.LocalReduce(r.NewObject(), unit); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func TestPageRankMRMatchesGR(t *testing.T) {
	const nodes = 30
	ix, src, _ := buildGraph(t, nodes, 600)
	p := PageRankParams{Nodes: nodes, Damping: 0.85}
	r, _ := NewPageRankReducer(p)
	grObj, err := core.Run(core.EngineConfig{Reducer: r, Workers: 2, UnitSize: ix.UnitSize}, ix, src)
	if err != nil {
		t.Fatal(err)
	}
	g := grObj.(*PageRankObject)
	for _, combine := range []bool{false, true} {
		job, err := PageRankMRJob(p, combine)
		if err != nil {
			t.Fatal(err)
		}
		job.Workers = 2
		res, err := mapreduce.Run(job, ix, src)
		if err != nil {
			t.Fatal(err)
		}
		mrObj, err := PageRankFromMR(res.Output, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range g.Incoming {
			if math.Abs(g.Incoming[i]-mrObj.Incoming[i]) > 1e-9 {
				t.Errorf("combine=%v node %d: GR %v, MR %v", combine, i, g.Incoming[i], mrObj.Incoming[i])
			}
		}
	}
}

func TestPageRankRegistry(t *testing.T) {
	enc, err := EncodePageRankParams(PageRankParams{Nodes: 10, Damping: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.NewReducer(PageRankReducerName, enc)
	if err != nil {
		t.Fatal(err)
	}
	if r.(*PageRankReducer).Params.Nodes != 10 {
		t.Errorf("registry params = %+v", r.(*PageRankReducer).Params)
	}
}

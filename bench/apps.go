package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/workload"
)

// Registry names of the four applications (the apps package exports only
// PageRank's).
const (
	appKNN       = "knn"
	appKMeans    = "kmeans"
	appHistogram = "histogram"
	appPageRank  = apps.PageRankReducerName
)

// appRun is one application as a workload drives it across reps: the
// current job parameters, the plain reducer for them, how the next rep's
// parameters follow from a final object, and a cheap conservation check.
type appRun struct {
	app     string            // registry name
	params  []byte            // current JobSpec.Params
	version int               // bumped whenever params change
	reducer core.GroupReducer // plain apps reducer for params

	// next derives the next rep's parameters from a rep's final object; nil
	// for one-shot applications, whose every rep has the same answer.
	next func(final core.Object) error
	// invariant is checked on every rep's final object.
	invariant func(final core.Object) error
}

func (a *appRun) setParams(params []byte) error {
	r, err := core.NewReducer(a.app, params)
	if err != nil {
		return err
	}
	a.params = params
	a.version++
	a.reducer = r.(core.GroupReducer)
	return nil
}

// newKNN searches the k nearest neighbours of a point drawn from seed.
func newKNN(seed uint64, dim, k int) (*appRun, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	q := make([]float64, dim)
	for i := range q {
		q[i] = rng.Float64()
	}
	params, err := apps.EncodeKNNParams(apps.KNNParams{K: k, Dim: dim, Query: q})
	if err != nil {
		return nil, err
	}
	a := &appRun{app: appKNN}
	a.invariant = func(final core.Object) error {
		if n := len(final.(*apps.KNNObject).Best); n != k {
			return fmt.Errorf("knn: %d neighbours, want %d", n, k)
		}
		return nil
	}
	return a, a.setParams(params)
}

func newHistogram(dim, bins int, totalUnits int64) (*appRun, error) {
	params, err := apps.EncodeHistogramParams(apps.HistogramParams{Bins: bins, Dim: dim})
	if err != nil {
		return nil, err
	}
	a := &appRun{app: appHistogram}
	a.invariant = func(final core.Object) error {
		if n := final.(*apps.HistogramObject).Total(); n != totalUnits {
			return fmt.Errorf("histogram: %d points binned, want %d", n, totalUnits)
		}
		return nil
	}
	return a, a.setParams(params)
}

// newKMeans runs Lloyd rounds from the dataset's first k points, feeding
// each round's centers forward.
func newKMeans(ix *chunk.Index, src chunk.Source, k, dim int) (*appRun, error) {
	centers, err := apps.SeedCenters(ix, src, k, dim)
	if err != nil {
		return nil, err
	}
	a := &appRun{app: appKMeans}
	set := func() error {
		params, err := apps.EncodeKMeansParams(apps.KMeansParams{K: k, Dim: dim, Centers: centers})
		if err != nil {
			return err
		}
		return a.setParams(params)
	}
	total := ix.TotalUnits()
	a.invariant = func(final core.Object) error {
		var n int64
		for _, c := range final.(*apps.KMeansObject).Counts {
			n += c
		}
		if n != total {
			return fmt.Errorf("kmeans: %d points assigned, want %d", n, total)
		}
		return nil
	}
	a.next = func(final core.Object) error {
		centers = apps.NextCenters(final.(*apps.KMeansObject), centers)
		return set()
	}
	return a, set()
}

// newPageRank runs power iterations from the uniform vector, feeding each
// round's ranks forward. Every round must conserve rank mass: the incoming
// contributions sum to the rank held by nodes that have out-edges.
func newPageRank(g *workload.PowerLawGraph, damping float64) (*appRun, error) {
	ranks := make([]float64, g.Nodes)
	for i := range ranks {
		ranks[i] = 1 / float64(g.Nodes)
	}
	a := &appRun{app: appPageRank}
	set := func() error {
		params, err := apps.EncodePageRankParams(apps.PageRankParams{Nodes: g.Nodes, Damping: damping, Ranks: ranks})
		if err != nil {
			return err
		}
		return a.setParams(params)
	}
	a.invariant = func(final core.Object) error {
		var got, want float64
		for _, v := range final.(*apps.PageRankObject).Incoming {
			got += v
		}
		for n, r := range ranks {
			if g.OutDegree(n) > 0 {
				want += r
			}
		}
		if !closeEnough(got, want, 1e-9) {
			return fmt.Errorf("pagerank: incoming mass %.15g, want %.15g", got, want)
		}
		return nil
	}
	a.next = func(final core.Object) error {
		ranks = apps.NextRanks(final.(*apps.PageRankObject), damping)
		return set()
	}
	return a, set()
}

func closeEnough(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// sameObject compares a live final object with its single-worker reference:
// float accumulators (kmeans, pagerank) to 1e-9 relative, since their
// summation order differs; everything else byte for byte.
func sameObject(r core.Reducer, got, want core.Object) error {
	switch w := want.(type) {
	case *apps.KMeansObject:
		g := got.(*apps.KMeansObject)
		if !closeEnough(g.SSE, w.SSE, 1e-9) {
			return fmt.Errorf("kmeans SSE %.15g, reference %.15g", g.SSE, w.SSE)
		}
		for k := range w.Counts {
			if g.Counts[k] != w.Counts[k] {
				return fmt.Errorf("kmeans cluster %d has %d points, reference %d", k, g.Counts[k], w.Counts[k])
			}
			for i := range w.Sums[k] {
				if !closeEnough(g.Sums[k][i], w.Sums[k][i], 1e-9) {
					return fmt.Errorf("kmeans sum[%d][%d] %.15g, reference %.15g", k, i, g.Sums[k][i], w.Sums[k][i])
				}
			}
		}
		return nil
	case *apps.PageRankObject:
		g := got.(*apps.PageRankObject)
		if len(g.Incoming) != len(w.Incoming) {
			return fmt.Errorf("pagerank object has %d nodes, reference %d", len(g.Incoming), len(w.Incoming))
		}
		for i := range w.Incoming {
			if !closeEnough(g.Incoming[i], w.Incoming[i], 1e-9) {
				return fmt.Errorf("pagerank incoming[%d] %.15g, reference %.15g", i, g.Incoming[i], w.Incoming[i])
			}
		}
		return nil
	}
	ge, err := r.Encode(got)
	if err != nil {
		return err
	}
	we, err := r.Encode(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(ge, we) {
		return fmt.Errorf("final object differs from the single-worker reference")
	}
	return nil
}

// reference folds the whole dataset on one worker straight from memory.
func reference(r core.Reducer, ix *chunk.Index, src chunk.Source) (core.Object, error) {
	return core.Run(core.EngineConfig{Reducer: r, Workers: 1, UnitSize: ix.UnitSize}, ix, src)
}

// ---------------------------------------------------------------------------
// Timing reducers for the traced run.

// timedPrefix names the registry entries that wrap the apps reducers.
const timedPrefix = "bench-"

// activeProbes is where registry-built timing reducers report; the registry
// is process-wide, so the run that is measuring installs its probes here.
var activeProbes atomic.Pointer[probes]

func init() {
	for _, app := range []string{appKNN, appKMeans, appHistogram, appPageRank} {
		core.Register(timedPrefix+app, func(params []byte) (core.Reducer, error) {
			r, err := core.NewReducer(app, params)
			if err != nil {
				return nil, err
			}
			return &timedReducer{GroupReducer: r.(core.GroupReducer), p: activeProbes.Load()}, nil
		})
	}
}

// timedReducer times an apps reducer from outside. Masters build theirs
// through the registry (agent side: folds and the encode of the cluster's
// object); the head gets one through Admit (head side: decode and the global
// reduction). While the tracer is off every call goes straight through.
type timedReducer struct {
	core.GroupReducer
	p    *probes
	head bool
}

func (r *timedReducer) LocalReduceGroup(obj core.Object, group []byte, unitSize int) error {
	tr := r.p.tr
	if !tr.on.Load() {
		return r.GroupReducer.LocalReduceGroup(obj, group, unitSize)
	}
	start := tr.now()
	err := r.GroupReducer.LocalReduceGroup(obj, group, unitSize)
	end := tr.now()
	r.p.fold.observe(end-start, len(group))
	tr.add(span{Name: "core.fold", Start: start, End: end, Parent: r.p.repSpan(), Query: -1, Job: -1, Site: -1})
	return err
}

func (r *timedReducer) GlobalReduce(dst, src core.Object) error {
	tr := r.p.tr
	if !r.head || !tr.on.Load() {
		return r.GroupReducer.GlobalReduce(dst, src)
	}
	start := tr.now()
	err := r.GroupReducer.GlobalReduce(dst, src)
	end := tr.now()
	r.p.global.observe(end-start, 0)
	tr.add(span{Name: "core.global_reduce", Start: start, End: end, Parent: r.p.repSpan(), Query: -1, Job: -1, Site: -1})
	return err
}

func (r *timedReducer) Encode(obj core.Object) ([]byte, error) {
	tr := r.p.tr
	if r.head || !tr.on.Load() {
		return r.GroupReducer.Encode(obj)
	}
	start := tr.now()
	data, err := r.GroupReducer.Encode(obj)
	r.p.encode.observe(tr.now()-start, len(data))
	return data, err
}

func (r *timedReducer) Decode(data []byte) (core.Object, error) {
	tr := r.p.tr
	if !r.head || !tr.on.Load() {
		return r.GroupReducer.Decode(data)
	}
	start := tr.now()
	obj, err := r.GroupReducer.Decode(data)
	r.p.decode.observe(tr.now()-start, len(data))
	return obj, err
}

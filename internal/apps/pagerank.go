package apps

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// PageRankParams configures one PageRank iteration over an edge-record
// dataset (see workload.PowerLawGraph): each unit carries (src, dst,
// outdeg(src)), so a full iteration is a single pass over the edges.
// Ranks holds the previous iteration's rank vector; nil means the uniform
// starting vector 1/N.
type PageRankParams struct {
	Nodes   int
	Damping float64
	Ranks   []float64
}

// Validate checks the parameters.
func (p PageRankParams) Validate() error {
	if p.Nodes <= 0 {
		return fmt.Errorf("apps: pagerank Nodes must be positive, got %d", p.Nodes)
	}
	if p.Damping <= 0 || p.Damping >= 1 {
		return fmt.Errorf("apps: pagerank damping %v outside (0,1)", p.Damping)
	}
	if p.Ranks != nil && len(p.Ranks) != p.Nodes {
		return fmt.Errorf("apps: pagerank rank vector has %d entries, want %d", len(p.Ranks), p.Nodes)
	}
	return nil
}

// PageRankObject is the reduction object: the vector of incoming rank
// contributions for every node. At 8 bytes per node this is the "very
// large reduction object" whose inter-cluster exchange dominates the
// application's sync time in the paper.
type PageRankObject struct {
	Incoming []float64
}

// PageRankReducer implements core.Reducer for one PageRank iteration.
type PageRankReducer struct {
	Params PageRankParams
	prev   []float64
}

// NewPageRankReducer validates params and returns a reducer; a nil rank
// vector starts uniform.
func NewPageRankReducer(p PageRankParams) (*PageRankReducer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	prev := p.Ranks
	if prev == nil {
		prev = make([]float64, p.Nodes)
		for i := range prev {
			prev[i] = 1 / float64(p.Nodes)
		}
	}
	return &PageRankReducer{Params: p, prev: prev}, nil
}

// NewObject implements core.Reducer.
func (r *PageRankReducer) NewObject() core.Object {
	return &PageRankObject{Incoming: make([]float64, r.Params.Nodes)}
}

// LocalReduce implements core.Reducer: fold one edge's contribution.
func (r *PageRankReducer) LocalReduce(obj core.Object, unit []byte) error {
	o := obj.(*PageRankObject)
	e := workload.DecodeEdge(unit)
	if int(e.Src) >= r.Params.Nodes || int(e.Dst) >= r.Params.Nodes {
		return fmt.Errorf("apps: edge %v outside graph of %d nodes", e, r.Params.Nodes)
	}
	if e.SrcOutDeg == 0 {
		return fmt.Errorf("apps: edge from %d carries zero out-degree", e.Src)
	}
	o.Incoming[e.Dst] += r.prev[e.Src] / float64(e.SrcOutDeg)
	return nil
}

// LocalReduceGroup implements core.GroupReducer.
func (r *PageRankReducer) LocalReduceGroup(obj core.Object, group []byte, unitSize int) error {
	o := obj.(*PageRankObject)
	n := uint32(r.Params.Nodes)
	for off := 0; off < len(group); off += unitSize {
		e := workload.DecodeEdge(group[off:])
		if e.Src >= n || e.Dst >= n || e.SrcOutDeg == 0 {
			return r.LocalReduce(obj, group[off:off+unitSize]) // produce the detailed error
		}
		o.Incoming[e.Dst] += r.prev[e.Src] / float64(e.SrcOutDeg)
	}
	return nil
}

// GlobalReduce implements core.Reducer: vector addition.
func (r *PageRankReducer) GlobalReduce(dst, src core.Object) error {
	return core.SumFloat64s(dst.(*PageRankObject).Incoming, src.(*PageRankObject).Incoming)
}

// Encode implements core.Reducer with the zero-suppressed vector codec
// (core.AppendFloat64Vector): a cluster folds only its share of the edges,
// so a good part of its contribution vector is exact zeros, and the
// inter-cluster exchange is link-bound. For the paper's graph this is
// still hundreds of megabytes — by design.
func (r *PageRankReducer) Encode(obj core.Object) ([]byte, error) {
	return core.AppendFloat64Vector(nil, obj.(*PageRankObject).Incoming, 0), nil
}

// Decode implements core.Reducer.
func (r *PageRankReducer) Decode(data []byte) (core.Object, error) {
	in, err := core.DecodeFloat64Vector(data, r.Params.Nodes)
	if err != nil {
		return nil, fmt.Errorf("apps: pagerank object: %w", err)
	}
	return &PageRankObject{Incoming: in}, nil
}

var (
	_ core.Reducer      = (*PageRankReducer)(nil)
	_ core.GroupReducer = (*PageRankReducer)(nil)
)

// NextRanks turns accumulated contributions into the next rank vector:
// rank[i] = (1-d)/N + d·incoming[i]. Mass from dangling nodes (out-degree
// zero) is not redistributed — the standard simplification for single-pass
// edge-stream PageRank; rank mass then sums to slightly under 1.
func NextRanks(obj *PageRankObject, damping float64) []float64 {
	n := len(obj.Incoming)
	ranks := make([]float64, n)
	base := baseRank(damping, n)
	for i, in := range obj.Incoming {
		ranks[i] = base + damping*in
	}
	return ranks
}

// baseRank is the rank of a node nothing points at, (1-d)/N. NextRanks
// writes it and EncodePageRankParams suppresses it; the two must agree to
// the bit, hence one expression.
func baseRank(damping float64, nodes int) float64 { return (1 - damping) / float64(nodes) }

// PageRankReducerName is the registry name of the PageRank application.
const PageRankReducerName = "pagerank"

// EncodePageRankParams serializes p for a JobSpec: Nodes, Damping, a
// has-ranks byte, then Ranks in the vector codec with the base rank
// suppressed (see params.go for the primitives).
func EncodePageRankParams(p PageRankParams) ([]byte, error) {
	b := core.AppendFloat64(appendInt(nil, p.Nodes), p.Damping)
	if p.Ranks == nil {
		return append(b, 0), nil
	}
	return core.AppendFloat64Vector(append(b, 1), p.Ranks, baseRank(p.Damping, p.Nodes)), nil
}

func decodePageRankParams(data []byte) (PageRankParams, error) {
	r := paramReader{data: data}
	p := PageRankParams{Nodes: r.int(), Damping: r.float64()}
	switch hasRanks := r.byte(); {
	case r.err != nil || hasRanks == 0:
		return p, r.done()
	case hasRanks == 1:
		var err error
		p.Ranks, err = core.DecodeFloat64Vector(r.rest(), p.Nodes)
		return p, err
	default:
		r.fail("bad has-ranks flag")
		return p, r.err
	}
}

func init() {
	core.Register(PageRankReducerName, func(params []byte) (core.Reducer, error) {
		p, err := decodePageRankParams(params)
		if err != nil {
			return nil, fmt.Errorf("apps: pagerank params: %w", err)
		}
		return NewPageRankReducer(p)
	})
}

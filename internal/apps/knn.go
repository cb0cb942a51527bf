// Package apps implements the paper's three evaluation applications —
// k-nearest-neighbors search, k-means clustering, and PageRank — on the
// Generalized Reduction API, together with Map-Reduce formulations of the
// same computations used by the API-comparison experiments (Figure 1).
//
// Application characteristics (paper §IV-A):
//
//   - knn: low computation, medium-to-high I/O demand, SMALL reduction
//     object (the k best neighbors).
//   - kmeans: heavy computation, low-to-medium I/O, small reduction object
//     (k center accumulators).
//   - pagerank: low-to-medium computation, high I/O, VERY LARGE reduction
//     object (the full next-rank vector), which stresses the inter-cluster
//     global reduction.
package apps

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
)

// KNNParams configures a k-nearest-neighbors search: find the K points of
// the dataset closest (squared Euclidean distance) to Query.
type KNNParams struct {
	K     int
	Dim   int
	Query []float64
}

// Validate checks the parameters.
func (p KNNParams) Validate() error {
	if p.K <= 0 {
		return fmt.Errorf("apps: knn K must be positive, got %d", p.K)
	}
	if p.Dim <= 0 {
		return fmt.Errorf("apps: knn Dim must be positive, got %d", p.Dim)
	}
	if len(p.Query) != p.Dim {
		return fmt.Errorf("apps: knn query has %d coordinates, want %d", len(p.Query), p.Dim)
	}
	for i, q := range p.Query {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			return fmt.Errorf("apps: knn query coordinate %d is %v, want a finite value", i, q)
		}
	}
	return nil
}

// Neighbor is one candidate result: a point and its squared distance to the
// query.
type Neighbor struct {
	Dist  float64
	Point []float64
}

// KNNObject is the reduction object: the best K neighbors seen so far, kept
// sorted by ascending distance. It is deliberately small — merging two of
// these across clusters is cheap.
type KNNObject struct {
	K    int
	Best []Neighbor // sorted ascending by Dist, len ≤ K
}

// bound is the k-th best distance of a full list, NaN (no bound) before.
func (o *KNNObject) bound() float64 {
	if len(o.Best) < o.K {
		return math.NaN()
	}
	return o.Best[o.K-1].Dist
}

// slot inserts dist and returns its entry, whose Point is nil or the evicted
// neighbor's to overwrite (every KNNObject owns its points); nil for NaN
// (the answer would depend on fold order) or, when full, !(dist < bound).
func (o *KNNObject) slot(dist float64) *Neighbor {
	if b := o.bound(); !(dist < b || b != b && dist == dist) {
		return nil
	}
	i := sort.Search(len(o.Best), func(i int) bool { return o.Best[i].Dist > dist })
	if len(o.Best) < o.K {
		o.Best = append(o.Best, Neighbor{})
	}
	pt := o.Best[len(o.Best)-1].Point
	copy(o.Best[i+1:], o.Best[i:])
	o.Best[i] = Neighbor{Dist: dist, Point: pt}
	return &o.Best[i]
}

// insert adds a copy of a candidate if it beats the current worst.
func (o *KNNObject) insert(n Neighbor) {
	if s := o.slot(n.Dist); s != nil {
		s.Point = append(s.Point[:0], n.Point...)
	}
}

// KNNReducer implements core.Reducer (and the group fast path) for kNN.
type KNNReducer struct {
	Params KNNParams
}

// NewKNNReducer validates params and returns a reducer.
func NewKNNReducer(p KNNParams) (*KNNReducer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &KNNReducer{Params: p}, nil
}

// NewObject implements core.Reducer.
func (r *KNNReducer) NewObject() core.Object {
	return &KNNObject{K: r.Params.K}
}

// distance computes the squared distance from the unit's point to the query
// without allocating. The inner loop is unrolled ×4 with hoisted bounds
// checks; the single accumulator adds terms in the same order as the scalar
// loop, so results are bit-identical (this is the kNN hot loop — every unit
// of every chunk passes through it). It returns once a block leaves the sum
// ≥ bound: adding a non-negative term never lowers an IEEE sum.
func (r *KNNReducer) distance(unit []byte, bound float64) float64 {
	q := r.Params.Query
	unit = unit[:4*len(q)] // one bounds check for the whole point
	var d float64
	i := 0
	for ; i+4 <= len(q); i += 4 {
		d0 := float64(core.Float32At(unit, 4*i)) - q[i]
		d1 := float64(core.Float32At(unit, 4*i+4)) - q[i+1]
		d2 := float64(core.Float32At(unit, 4*i+8)) - q[i+2]
		d3 := float64(core.Float32At(unit, 4*i+12)) - q[i+3]
		d += d0 * d0
		d += d1 * d1
		d += d2 * d2
		d += d3 * d3
		if d >= bound {
			return d
		}
	}
	for ; i < len(q); i++ {
		diff := float64(core.Float32At(unit, 4*i)) - q[i]
		d += diff * diff
	}
	return d
}

// LocalReduce implements core.Reducer: fold one point into the k-best list.
func (r *KNNReducer) LocalReduce(obj core.Object, unit []byte) error {
	return r.LocalReduceGroup(obj, unit, len(unit))
}

// LocalReduceGroup implements core.GroupReducer.
func (r *KNNReducer) LocalReduceGroup(obj core.Object, group []byte, unitSize int) error {
	if unitSize != 4*r.Params.Dim || len(group)%unitSize != 0 {
		return fmt.Errorf("%w: knn group of %d bytes in %d-byte units, want %d", core.ErrBadPayload, len(group), unitSize, 4*r.Params.Dim)
	}
	o := obj.(*KNNObject)
	bound := o.bound()
	for unit := group; len(unit) > 0; unit = unit[unitSize:] {
		if dist := r.distance(unit, bound); !(dist >= bound) { // most points fail here, without a call
			if n := o.slot(dist); n != nil {
				n.Point = append(n.Point[:0], make([]float64, r.Params.Dim)...)
				for i := range n.Point {
					n.Point[i] = float64(core.Float32At(unit, 4*i))
				}
				bound = o.bound()
			}
		}
	}
	return nil
}

// GlobalReduce implements core.Reducer: merge two k-best lists.
func (r *KNNReducer) GlobalReduce(dst, src core.Object) error {
	d := dst.(*KNNObject)
	for _, n := range src.(*KNNObject).Best {
		d.insert(n)
	}
	return nil
}

// Encode implements core.Reducer with a compact binary layout:
// uint32 count, then per neighbor: float64 dist + Dim float64 coordinates.
func (r *KNNReducer) Encode(obj core.Object) ([]byte, error) {
	o := obj.(*KNNObject)
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(o.Best)))
	for _, n := range o.Best {
		buf = core.AppendFloat64(buf, n.Dist)
		for _, c := range n.Point {
			buf = core.AppendFloat64(buf, c)
		}
	}
	return buf, nil
}

// Decode implements core.Reducer.
func (r *KNNReducer) Decode(data []byte) (core.Object, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("apps: knn object truncated (%d bytes)", len(data))
	}
	count := int(binary.LittleEndian.Uint32(data))
	if count > r.Params.K {
		return nil, fmt.Errorf("apps: knn object holds %d neighbors, want at most %d", count, r.Params.K)
	}
	rec := 8 * (1 + r.Params.Dim)
	if len(data) != 4+count*rec {
		return nil, fmt.Errorf("apps: knn object is %d bytes, want %d", len(data), 4+count*rec)
	}
	o := &KNNObject{K: r.Params.K}
	off := 4
	for i := 0; i < count; i++ {
		n := Neighbor{Dist: core.Float64At(data, off), Point: make([]float64, r.Params.Dim)}
		off += 8
		for d := range n.Point {
			n.Point[d] = core.Float64At(data, off)
			off += 8
		}
		o.Best = append(o.Best, n)
	}
	return o, nil
}

// Distance exposes the query distance for tests and MR formulations.
func (r *KNNReducer) Distance(unit []byte) float64 { return r.distance(unit, math.NaN()) }

var (
	_ core.Reducer      = (*KNNReducer)(nil)
	_ core.GroupReducer = (*KNNReducer)(nil)
)

// EncodeKNNParams serializes p for a JobSpec: K, Dim, then the
// count-prefixed Query (see params.go).
func EncodeKNNParams(p KNNParams) ([]byte, error) {
	return appendFloat64s(appendInt(appendInt(nil, p.K), p.Dim), p.Query), nil
}

func decodeKNNParams(data []byte) (KNNParams, error) {
	r := paramReader{data: data}
	p := KNNParams{K: r.int(), Dim: r.int(), Query: r.float64s()}
	return p, r.done()
}

// KNNReducerName is the registry name of the kNN application.
const KNNReducerName = "knn"

func init() {
	core.Register(KNNReducerName, func(params []byte) (core.Reducer, error) {
		p, err := decodeKNNParams(params)
		if err != nil {
			return nil, fmt.Errorf("apps: knn params: %w", err)
		}
		return NewKNNReducer(p)
	})
}

// BruteForceKNN is the reference answer used by tests: exact k-best over an
// in-memory point list.
func BruteForceKNN(points [][]float64, query []float64, k int) []Neighbor {
	obj := &KNNObject{K: k}
	for _, pt := range points {
		var d float64
		for i := range query {
			diff := pt[i] - query[i]
			d += diff * diff
		}
		obj.insert(Neighbor{Dist: d, Point: pt})
	}
	return obj.Best
}

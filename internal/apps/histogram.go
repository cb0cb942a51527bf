package apps

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/mapreduce"
)

// Histogram is a fourth application in the FREERIDE family the paper's API
// descends from: bucket every point's first coordinate into B equal-width
// bins over [0,1). It has the lowest compute of all the applications and a
// tiny reduction object — a pure I/O stress test, and the simplest template
// for writing new reducers.

// HistogramParams configures the binning.
type HistogramParams struct {
	Bins int
	Dim  int // point dimensionality (unit size = 4×Dim)
}

// Validate checks the parameters.
func (p HistogramParams) Validate() error {
	if p.Bins <= 0 {
		return fmt.Errorf("apps: histogram Bins must be positive, got %d", p.Bins)
	}
	if p.Dim <= 0 {
		return fmt.Errorf("apps: histogram Dim must be positive, got %d", p.Dim)
	}
	return nil
}

// HistogramObject is the reduction object: one count per bin.
type HistogramObject struct {
	Counts []int64
}

// Total returns the number of points folded in.
func (o *HistogramObject) Total() int64 {
	var n int64
	for _, c := range o.Counts {
		n += c
	}
	return n
}

// HistogramReducer implements core.Reducer (plus the group fast path).
type HistogramReducer struct {
	Params HistogramParams
}

// NewHistogramReducer validates params and returns a reducer.
func NewHistogramReducer(p HistogramParams) (*HistogramReducer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &HistogramReducer{Params: p}, nil
}

// NewObject implements core.Reducer.
func (r *HistogramReducer) NewObject() core.Object {
	return &HistogramObject{Counts: make([]int64, r.Params.Bins)}
}

// bin maps a point unit to its bucket by first coordinate.
func (r *HistogramReducer) bin(unit []byte) int {
	v := float64(core.Float32At(unit, 0))
	b := int(v * float64(r.Params.Bins))
	if b < 0 {
		b = 0
	}
	if b >= r.Params.Bins {
		b = r.Params.Bins - 1
	}
	return b
}

// LocalReduce implements core.Reducer.
func (r *HistogramReducer) LocalReduce(obj core.Object, unit []byte) error {
	obj.(*HistogramObject).Counts[r.bin(unit)]++
	return nil
}

// LocalReduceGroup implements core.GroupReducer.
func (r *HistogramReducer) LocalReduceGroup(obj core.Object, group []byte, unitSize int) error {
	o := obj.(*HistogramObject)
	for off := 0; off < len(group); off += unitSize {
		o.Counts[r.bin(group[off:])]++
	}
	return nil
}

// GlobalReduce implements core.Reducer.
func (r *HistogramReducer) GlobalReduce(dst, src core.Object) error {
	return core.SumInt64s(dst.(*HistogramObject).Counts, src.(*HistogramObject).Counts)
}

// Encode implements core.Reducer: Bins little-endian int64s.
func (r *HistogramReducer) Encode(obj core.Object) ([]byte, error) {
	o := obj.(*HistogramObject)
	buf := make([]byte, 0, 8*len(o.Counts))
	for _, c := range o.Counts {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
	}
	return buf, nil
}

// Decode implements core.Reducer.
func (r *HistogramReducer) Decode(data []byte) (core.Object, error) {
	if len(data) != 8*r.Params.Bins {
		return nil, fmt.Errorf("apps: histogram object is %d bytes, want %d", len(data), 8*r.Params.Bins)
	}
	o := &HistogramObject{Counts: make([]int64, r.Params.Bins)}
	for i := range o.Counts {
		o.Counts[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return o, nil
}

var (
	_ core.Reducer      = (*HistogramReducer)(nil)
	_ core.GroupReducer = (*HistogramReducer)(nil)
)

// HistogramReducerName is the registry name of the histogram application.
const HistogramReducerName = "histogram"

// EncodeHistogramParams serializes p for a JobSpec: Bins, Dim (see
// params.go).
func EncodeHistogramParams(p HistogramParams) ([]byte, error) {
	return appendInt(appendInt(nil, p.Bins), p.Dim), nil
}

func decodeHistogramParams(data []byte) (HistogramParams, error) {
	r := paramReader{data: data}
	p := HistogramParams{Bins: r.int(), Dim: r.int()}
	return p, r.done()
}

func init() {
	core.Register(HistogramReducerName, func(params []byte) (core.Reducer, error) {
		p, err := decodeHistogramParams(params)
		if err != nil {
			return nil, fmt.Errorf("apps: histogram params: %w", err)
		}
		return NewHistogramReducer(p)
	})
}

// HistogramMRJob builds the Map-Reduce formulation: map emits (bin, 1),
// reduce (and optionally combine) sums counts.
func HistogramMRJob(p HistogramParams, withCombine bool) (mapreduce.Job, error) {
	r, err := NewHistogramReducer(p)
	if err != nil {
		return mapreduce.Job{}, err
	}
	sum := func(values []any) (int64, error) {
		var n int64
		for _, v := range values {
			c, ok := v.(int64)
			if !ok {
				return 0, fmt.Errorf("apps: histogram MR value is %T", v)
			}
			n += c
		}
		return n, nil
	}
	job := mapreduce.Job{
		UnitSize: 4 * p.Dim,
		Map: func(unit []byte, emit mapreduce.Emit) error {
			emit(fmt.Sprintf("%04d", r.bin(unit)), int64(1))
			return nil
		},
		Reduce: func(key string, values []any) (any, error) {
			n, err := sum(values)
			return n, err
		},
	}
	if withCombine {
		job.Combine = func(key string, values []any) (any, error) {
			n, err := sum(values)
			return n, err
		}
	}
	return job, nil
}

// HistogramFromMR converts an MR output into a HistogramObject.
func HistogramFromMR(output map[string]any, p HistogramParams) (*HistogramObject, error) {
	obj := &HistogramObject{Counts: make([]int64, p.Bins)}
	for key, v := range output {
		var bin int
		if _, err := fmt.Sscanf(key, "%d", &bin); err != nil || bin < 0 || bin >= p.Bins {
			return nil, fmt.Errorf("apps: histogram MR key %q", key)
		}
		c, ok := v.(int64)
		if !ok {
			return nil, fmt.Errorf("apps: histogram MR output value is %T", v)
		}
		obj.Counts[bin] = c
	}
	return obj, nil
}

// ReferenceHistogram computes the exact answer from decoded points, for
// tests.
func ReferenceHistogram(points [][]float64, bins int) []int64 {
	counts := make([]int64, bins)
	for _, pt := range points {
		b := int(pt[0] * float64(bins))
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	return counts
}

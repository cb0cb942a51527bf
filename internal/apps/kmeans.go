package apps

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/workload"
)

// KMeansParams configures one k-means iteration: assign every point to its
// nearest center and accumulate per-cluster sums. A driver (KMeansIterate,
// or the distributed harness) updates Centers between iterations.
type KMeansParams struct {
	K       int
	Dim     int
	Centers [][]float64
}

// The reducer keeps a K×K table of center distances (8 MiB at maxKMeansK),
// and the rounding argument for its pruning margin holds for Dim up to
// about 2^31 (docs/PERFORMANCE.md, "Fold kernels").
const (
	maxKMeansK   = 1 << 10
	maxKMeansDim = 1 << 24
)

// Validate checks the parameters.
func (p KMeansParams) Validate() error {
	if p.K <= 0 || p.K > maxKMeansK {
		return fmt.Errorf("apps: kmeans K must be in [1, %d], got %d", maxKMeansK, p.K)
	}
	if p.Dim <= 0 || p.Dim > maxKMeansDim {
		return fmt.Errorf("apps: kmeans Dim must be in [1, %d], got %d", maxKMeansDim, p.Dim)
	}
	if len(p.Centers) != p.K {
		return fmt.Errorf("apps: kmeans has %d centers, want %d", len(p.Centers), p.K)
	}
	for i, c := range p.Centers {
		if len(c) != p.Dim {
			return fmt.Errorf("apps: kmeans center %d has %d coordinates, want %d", i, len(c), p.Dim)
		}
		for j, v := range c {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("apps: kmeans center %d coordinate %d is %v, want a finite value", i, j, v)
			}
		}
	}
	return nil
}

// KMeansObject is the reduction object: per-cluster coordinate sums and
// point counts, plus the summed squared error for convergence tracking.
// Its size is K×Dim floats — small and independent of the dataset size.
type KMeansObject struct {
	Sums   [][]float64
	Counts []int64
	SSE    float64

	// scratch holds the current point decoded to float64 — reduction objects
	// are per-worker, so the fold decodes each unit ONCE here instead of
	// re-decoding it for every center it compares.
	scratch []float64
}

// gridSide is the side of the first-guess grid. A point's cell, by its
// projections on the centers' two principal axes, names the center the
// search evaluates first.
const gridSide = 32

// The search skips center j when cc[best][j] > lim = bestDist·pruneSlack +
// pruneFloor, i.e. 4·bestDist·(1+2⁻²⁰) plus a floor far above the
// underflow error of a distance; see nearest.
const (
	pruneSlack = 4 + 0x1p-18
	pruneFloor = 0x1p-1000
)

// KMeansReducer implements core.Reducer for one k-means iteration. Build it
// with NewKMeansReducer, which precomputes the search's tables.
type KMeansReducer struct {
	Params KMeansParams

	cc    []float64    // cc[b*K+j]: squared distance of centers b ≠ j, at most MaxFloat64; +Inf when b == j
	sep   []float64    // sep[b]: the least of row b of cc
	axes  [2][]float64 // the centers' two principal axes
	lo    [2]float64   // the centers' least projection on each axis
	scale [2]float64   // gridSide / the range of those projections
	first [gridSide * gridSide]uint16
}

// NewKMeansReducer validates params and returns a reducer. Its tables take
// about (K+64)·K·Dim + 1024·K multiply-adds, against K·Dim per point for a
// plain scan.
func NewKMeansReducer(p KMeansParams) (*KMeansReducer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r := &KMeansReducer{Params: p}
	k, dim := p.K, p.Dim
	buf := make([]float64, k*k+3*k+4*dim)
	r.cc, r.sep, buf = buf[:k*k], buf[k*k:k*k+k], buf[k*k+k:]
	r.axes[0], r.axes[1], buf = buf[:dim], buf[dim:2*dim], buf[2*dim:]
	proj := [2][]float64{buf[:k], buf[k : 2*k]} // each center's projections
	for b, cb := range p.Centers {
		row := r.cc[b*k : b*k+k]
		for j, cj := range p.Centers {
			row[j] = min(sqDist(cb, cj), math.MaxFloat64)
		}
		row[b] = math.Inf(1)
		r.sep[b] = slices.Min(row)
	}

	principalAxes(p.Centers, r.axes, buf[2*k:2*k+dim], buf[2*k+dim:])
	var hi [2]float64
	for a, u := range r.axes {
		for j, c := range p.Centers {
			proj[a][j] = dot(c, u)
		}
		r.lo[a], hi[a] = slices.Min(proj[a]), slices.Max(proj[a])
		r.scale[a] = gridSide / (hi[a] - r.lo[a])
	}
	for cell := range r.first {
		mid := [2]float64{
			r.lo[0] + (float64(cell/gridSide)+0.5)*(hi[0]-r.lo[0])/gridSide,
			r.lo[1] + (float64(cell%gridSide)+0.5)*(hi[1]-r.lo[1])/gridSide,
		}
		best, bestDist := 0, math.Inf(1)
		for j := range p.Centers {
			d0, d1 := proj[0][j]-mid[0], proj[1][j]-mid[1]
			if d := d0*d0 + d1*d1; d < bestDist {
				best, bestDist = j, d
			}
		}
		r.first[cell] = uint16(best)
	}
	return r, nil
}

// principalAxes sets u[0] and u[1] to the centers' first two principal
// directions, by 16 rounds of power iteration each, the second kept
// orthogonal to the first; mean and next are scratch. The axes only choose
// which center the search tries first, so a round that cannot normalise
// (no spread, overflow) just stops with the direction it has.
func principalAxes(centers [][]float64, u [2][]float64, mean, next []float64) {
	clear(mean)
	for _, c := range centers {
		for i, x := range c {
			mean[i] += x / float64(len(centers))
		}
	}
	for a, v := range u {
		for i := range v {
			v[i] = float64(1 + a*(i%2))
		}
		for round := 0; round < 16; round++ {
			clear(next)
			for _, c := range centers {
				var s float64
				for i, x := range c {
					s += (x - mean[i]) * v[i]
				}
				for i, x := range c {
					next[i] += (x - mean[i]) * s
				}
			}
			if a == 1 {
				s := dot(next, u[0])
				for i := range next {
					next[i] -= s * u[0][i]
				}
			}
			n := math.Sqrt(dot(next, next))
			if !(n > 0 && n <= math.MaxFloat64) {
				break
			}
			for i := range v {
				v[i] = next[i] / n
			}
		}
	}
}

// NewObject implements core.Reducer.
func (r *KMeansReducer) NewObject() core.Object {
	o := &KMeansObject{
		Sums:   make([][]float64, r.Params.K),
		Counts: make([]int64, r.Params.K),
	}
	for k := range o.Sums {
		o.Sums[k] = make([]float64, r.Params.Dim)
	}
	return o
}

// sqDist is the squared distance of pt and c[:len(pt)], summed in
// coordinate order.
func sqDist(pt, c []float64) float64 {
	c = c[:len(pt)] // one bounds check per center
	var d float64
	for i, p := range pt {
		diff := p - c[i]
		d += diff * diff
	}
	return d
}

func dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// gridIndex maps a scaled projection to its grid row or column; NaN maps
// to 0.
func gridIndex(x float64) int {
	if x >= gridSide-1 {
		return gridSide - 1
	}
	if x > 0 {
		return int(x)
	}
	return 0
}

// nearest returns the center a plain scan of every center in index order
// picks for pt — the lowest index of least squared distance, or (0,
// MaxFloat64) when no distance is below MaxFloat64 — with the same
// distance bits, while evaluating only the centers that can win. This is
// the kmeans compute kernel.
//
// It evaluates the grid's guess first, then every other center in index
// order, and skips center j when cc[best][j] > lim; when the whole row of
// the guess is above lim (sep), it skips them all at once. The triangle
// inequality gives |p−c_j| ≥ |c_best−c_j| − |p−c_best|, so a center more
// than twice as far from the best as the point is cannot be nearer; the
// slack of 2⁻²⁰ and the floor cover the rounding and underflow of the
// computed distances, so every skipped center's computed distance is
// strictly above bestDist (the argument is in docs/PERFORMANCE.md, "Fold
// kernels"). Before any center is below MaxFloat64, lim is +Inf and
// nothing is skipped; the best itself is skipped by its +Inf diagonal.
func (r *KMeansReducer) nearest(pt []float64) (int, float64) {
	centers, cc, k := r.Params.Centers, r.cc, r.Params.K
	var x, y float64
	u, v := r.axes[0][:len(pt)], r.axes[1][:len(pt)]
	for i, p := range pt {
		x += p * u[i]
		y += p * v[i]
	}
	cell := gridIndex((x-r.lo[0])*r.scale[0])*gridSide + gridIndex((y-r.lo[1])*r.scale[1])
	best, bestDist, lim := 0, math.MaxFloat64, math.Inf(1)
	first := int(r.first[cell])
	if d := sqDist(pt, centers[first]); d < bestDist {
		best, bestDist, lim = first, d, d*pruneSlack+pruneFloor
		if r.sep[first] > lim {
			return best, bestDist
		}
	}
	row := cc[best*k:]
	for j, c := range centers {
		if row[j] > lim {
			continue
		}
		if d := sqDist(pt, c); d <= bestDist && (d < bestDist || j < best) {
			best, bestDist, lim = j, d, d*pruneSlack+pruneFloor
			row = cc[j*k:]
		}
	}
	return best, bestDist
}

// Assign returns the nearest center for a point unit and its squared
// distance — the application's compute kernel, as the fold runs it.
func (r *KMeansReducer) Assign(unit []byte) (int, float64) {
	pt := make([]float64, r.Params.Dim)
	workload.DecodePoint(unit, pt)
	return r.nearest(pt)
}

// LocalReduce implements core.Reducer: the group fold over one unit.
func (r *KMeansReducer) LocalReduce(obj core.Object, unit []byte) error {
	return r.LocalReduceGroup(obj, unit, len(unit))
}

// LocalReduceGroup implements core.GroupReducer. Each unit is decoded to
// float64 once, into the per-worker object's scratch, and the decoded point
// feeds both the center search and the sum accumulation.
func (r *KMeansReducer) LocalReduceGroup(obj core.Object, group []byte, unitSize int) error {
	dim := r.Params.Dim
	if unitSize != 4*dim || len(group)%unitSize != 0 {
		return fmt.Errorf("%w: kmeans group of %d bytes in %d-byte units, want %d", core.ErrBadPayload, len(group), unitSize, 4*dim)
	}
	o := obj.(*KMeansObject)
	if cap(o.scratch) < dim {
		o.scratch = make([]float64, dim)
	}
	pt := o.scratch[:dim]
	for unit := group; len(unit) > 0; unit = unit[unitSize:] {
		u := unit[:unitSize] // one bounds check for the whole decode
		for i := range pt {
			pt[i] = float64(core.Float32At(u, 4*i))
		}
		k, d := r.nearest(pt)
		sums := o.Sums[k][:dim]
		for i, p := range pt {
			sums[i] += p
		}
		o.Counts[k]++
		o.SSE += d
	}
	return nil
}

// GlobalReduce implements core.Reducer: element-wise accumulator sums.
func (r *KMeansReducer) GlobalReduce(dst, src core.Object) error {
	d, s := dst.(*KMeansObject), src.(*KMeansObject)
	for k := range d.Sums {
		if err := core.SumFloat64s(d.Sums[k], s.Sums[k]); err != nil {
			return err
		}
	}
	if err := core.SumInt64s(d.Counts, s.Counts); err != nil {
		return err
	}
	d.SSE += s.SSE
	return nil
}

// Encode implements core.Reducer: K×(Dim float64 + int64) + SSE.
func (r *KMeansReducer) Encode(obj core.Object) ([]byte, error) {
	o := obj.(*KMeansObject)
	buf := make([]byte, 0, 8*(r.Params.K*(r.Params.Dim+1)+1))
	for k := 0; k < r.Params.K; k++ {
		for _, v := range o.Sums[k] {
			buf = core.AppendFloat64(buf, v)
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(o.Counts[k]))
	}
	return core.AppendFloat64(buf, o.SSE), nil
}

// Decode implements core.Reducer.
func (r *KMeansReducer) Decode(data []byte) (core.Object, error) {
	want := 8 * (r.Params.K*(r.Params.Dim+1) + 1)
	if len(data) != want {
		return nil, fmt.Errorf("apps: kmeans object is %d bytes, want %d", len(data), want)
	}
	o := r.NewObject().(*KMeansObject)
	off := 0
	for k := 0; k < r.Params.K; k++ {
		for i := 0; i < r.Params.Dim; i++ {
			o.Sums[k][i] = core.Float64At(data, off)
			off += 8
		}
		o.Counts[k] = int64(binary.LittleEndian.Uint64(data[off:]))
		off += 8
	}
	o.SSE = core.Float64At(data, off)
	return o, nil
}

var (
	_ core.Reducer      = (*KMeansReducer)(nil)
	_ core.GroupReducer = (*KMeansReducer)(nil)
)

// NextCenters derives the next iteration's centers from an accumulated
// object; clusters that attracted no points keep their previous center.
func NextCenters(obj *KMeansObject, prev [][]float64) [][]float64 {
	next := make([][]float64, len(obj.Sums))
	for k := range next {
		next[k] = make([]float64, len(obj.Sums[k]))
		if obj.Counts[k] == 0 {
			copy(next[k], prev[k])
			continue
		}
		for i, v := range obj.Sums[k] {
			next[k][i] = v / float64(obj.Counts[k])
		}
	}
	return next
}

// SeedCenters deterministically places k initial centers by sampling the
// first k points of the dataset.
func SeedCenters(ix *chunk.Index, src chunk.Source, k, dim int) ([][]float64, error) {
	if ix.NumChunks() == 0 {
		return nil, fmt.Errorf("apps: empty dataset")
	}
	ref := ix.Files[0].Chunks[0]
	data, err := src.ReadChunk(ref)
	if err != nil {
		return nil, err
	}
	if ref.Units < k {
		return nil, fmt.Errorf("apps: first chunk has %d points, need %d seeds", ref.Units, k)
	}
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, dim)
		unit := data[c*ix.UnitSize:]
		for i := 0; i < dim; i++ {
			centers[c][i] = float64(core.Float32At(unit, 4*i))
		}
	}
	return centers, nil
}

// KMeansIterate runs full Lloyd iterations in-process (the quickstart path):
// each round applies the reducer over the dataset via core.Run and updates
// the centers, stopping early when the SSE improvement falls below tol.
func KMeansIterate(ix *chunk.Index, src chunk.Source, p KMeansParams, workers, iters int, tol float64) ([][]float64, float64, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	prevSSE := math.MaxFloat64
	var sse float64
	for it := 0; it < iters; it++ {
		r, err := NewKMeansReducer(p)
		if err != nil {
			return nil, 0, err
		}
		obj, err := core.Run(core.EngineConfig{
			Reducer:  r,
			Workers:  workers,
			UnitSize: ix.UnitSize,
		}, ix, src)
		if err != nil {
			return nil, 0, err
		}
		acc := obj.(*KMeansObject)
		p.Centers = NextCenters(acc, p.Centers)
		sse = acc.SSE
		if prevSSE-sse < tol*prevSSE {
			break
		}
		prevSSE = sse
	}
	return p.Centers, sse, nil
}

// KMeansReducerName is the registry name of the k-means application.
const KMeansReducerName = "kmeans"

// EncodeKMeansParams serializes p for a JobSpec: K, Dim, the number of
// centers, then each center as a count-prefixed run (see params.go).
func EncodeKMeansParams(p KMeansParams) ([]byte, error) {
	b := appendInt(appendInt(nil, p.K), p.Dim)
	b = binary.AppendUvarint(b, uint64(len(p.Centers)))
	for _, c := range p.Centers {
		b = appendFloat64s(b, c)
	}
	return b, nil
}

func decodeKMeansParams(data []byte) (KMeansParams, error) {
	r := paramReader{data: data}
	p := KMeansParams{K: r.int(), Dim: r.int()}
	// A center is at least its one-byte count, and there are no more than K
	// of them: bound the count by both before a slice header is allocated.
	if n := r.count(1); n > min(max(p.K, 0), maxKMeansK) {
		r.fail(fmt.Sprintf("%d centers for K %d", n, p.K))
	} else if n > 0 {
		p.Centers = make([][]float64, n)
		for i := range p.Centers {
			p.Centers[i] = r.float64s()
		}
	}
	return p, r.done()
}

func init() {
	core.Register(KMeansReducerName, func(params []byte) (core.Reducer, error) {
		p, err := decodeKMeansParams(params)
		if err != nil {
			return nil, fmt.Errorf("apps: kmeans params: %w", err)
		}
		return NewKMeansReducer(p)
	})
}

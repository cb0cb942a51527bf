package apps

import (
	"cmp"
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

// The reducer keeps K×K tables of center distances and of their order (10
// MiB at maxKMeansK), and the rounding argument for its pruning margin
// holds for Dim up to about 2^31 (docs/PERFORMANCE.md, "Fold kernels").
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

// The first guess comes from a table of at most guessCells cells over the
// centers' first min(maxAxes, Dim) principal axes: a point's cell, by its
// projections on those axes, names the center the search evaluates first.
const (
	maxAxes    = 4
	guessCells = 1 << 12
)

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

	cc    []float64        // cc[b*K+j]: squared distance of centers b ≠ j, at most MaxFloat64; +Inf when b == j
	order []uint16         // order[b*K:][:K]: every center by ascending cc[b*K+·], so b itself last
	axes  []float64        // axes[i*maxAxes+a]: coordinate i of guess axis a, in cells per unit; zero for an unsplit axis
	lo    [maxAxes]float64 // the centers' least projection on each axis, in cells
	side  [maxAxes]int     // cells along each axis
	first []uint16         // the center nearest each cell's middle; the last axis varies fastest
}

// NewKMeansReducer validates params and returns a reducer. Its tables take
// about K·K·Dim multiply-adds, a sort of each of K rows of K, and 4096·K
// more for the guess table, against K·Dim per point for a plain scan.
func NewKMeansReducer(p KMeansParams) (*KMeansReducer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r := &KMeansReducer{Params: p}
	k, dim := p.K, p.Dim
	buf := make([]float64, k*k+(2*maxAxes+1)*k+(2*maxAxes+2)*dim)
	u16 := make([]uint16, k*k+guessCells)
	r.cc, r.order, buf = buf[:k*k], u16[:k*k], buf[k*k:]
	for b, cb := range p.Centers {
		row, ord := r.cc[b*k:b*k+k], r.order[b*k:b*k+k]
		for j, cj := range p.Centers {
			row[j], ord[j] = min(sqDist(cb, cj), math.MaxFloat64), uint16(j)
		}
		row[b] = math.Inf(1)
		slices.SortFunc(ord, func(i, j uint16) int { return cmp.Compare(row[i], row[j]) })
	}

	var ua [maxAxes][]float64
	u := ua[:min(maxAxes, dim)]
	for a := range u {
		u[a], buf = buf[:dim], buf[dim:]
	}
	principalAxes(p.Centers, u, buf[:dim], buf[dim:2*dim])
	r.axes, buf = buf[2*dim:2*dim+maxAxes*dim], buf[2*dim+maxAxes*dim:]
	proj := buf[:maxAxes*k] // proj[a*k+j]: center j's projection on axis a
	var lo, hi [maxAxes]float64
	side := [maxAxes]int{1, 1, 1, 1}
	for a, v := range u {
		lo[a], hi[a] = math.Inf(1), math.Inf(-1)
		for j, c := range p.Centers {
			x := dot(c, v)
			proj[a*k+j], lo[a], hi[a] = x, min(lo[a], x), max(hi[a], x)
		}
	}
	// Each doubling goes to the axis of widest cells, so the cells follow the
	// centers' spread: collinear centers get all of them on one axis.
	cells := 1
	for ; cells < guessCells; cells *= 2 {
		widest, w := -1, 0.0
		for a := range u {
			if wa := (hi[a] - lo[a]) / float64(side[a]); wa > w {
				widest, w = a, wa
			}
		}
		if widest < 0 {
			break
		}
		side[widest] *= 2
	}
	for a, v := range u {
		if side[a] > 1 { // an unsplit axis stays zero, in cell 0
			scale := float64(side[a]) / (hi[a] - lo[a])
			for i, x := range v {
				r.axes[i*maxAxes+a] = x * scale
			}
			r.lo[a] = lo[a] * scale
		}
	}
	r.side, r.first = side, u16[k*k:k*k+cells]
	// Fill the table an axis at a time: part holds each center's squared
	// distance from the cell's middle over the axes before a.
	parts := buf[maxAxes*k : 2*maxAxes*k]
	var fill func(a, cell int, part []float64)
	fill = func(a, cell int, part []float64) {
		pa, next, part := proj[a*k:a*k+k], parts[a*k:a*k+k], part[:k]
		w := (hi[a] - lo[a]) / float64(side[a])
		for i := range side[a] {
			mid := lo[a] + (float64(i)+0.5)*w
			if a+1 < len(u) {
				for j, x := range pa {
					next[j] = part[j] + (x-mid)*(x-mid)
				}
				fill(a+1, cell*side[a]+i, next)
				continue
			}
			best, bestDist := 0, math.Inf(1)
			for j, x := range pa {
				if d := part[j] + (x-mid)*(x-mid); d < bestDist {
					best, bestDist = j, d
				}
			}
			r.first[cell*side[a]+i] = uint16(best)
		}
	}
	fill(0, 0, buf[2*maxAxes*k:(2*maxAxes+1)*k])
	return r, nil
}

// principalAxes sets each u[a] to the centers' a-th principal direction, by
// 16 rounds of power iteration kept orthogonal to every earlier axis; mean
// and next are scratch. The axes only choose which center the search tries
// first, so an axis with no spread left, or whose round cannot normalise
// (overflow), is zero.
func principalAxes(centers [][]float64, u [][]float64, mean, next []float64) {
	clear(mean)
	for _, c := range centers {
		for i, x := range c {
			mean[i] += x / float64(len(centers))
		}
	}
	var top float64 // about |C·u[0]| for the centers' scatter matrix C
	for a, v := range u {
		for i := range v {
			v[i] = float64(1 + i%(a+1))
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
			for _, w := range u[:a] {
				s := dot(next, w)
				for i := range next {
					next[i] -= s * w[i]
				}
			}
			n := math.Sqrt(dot(next, next))
			if !(n > top*0x1p-30 && n <= math.MaxFloat64) {
				clear(v)
				break
			}
			for i := range v {
				v[i] = next[i] / n
			}
			top = max(top, n)
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

// cellIndex maps a projection, in cells from the axis's least center, to
// its cell along an axis of side cells; NaN maps to 0.
func cellIndex(x float64, side int) int {
	if x >= float64(side-1) {
		return side - 1
	}
	if x > 0 {
		return int(x)
	}
	return 0
}

// guess is the guess table's entry for pt's cell: the center the search
// evaluates first. One pass over pt feeds all four projections.
func (r *KMeansReducer) guess(pt []float64) int {
	axes := r.axes[:maxAxes*len(pt)]
	var x0, x1, x2, x3 float64
	for i, p := range pt {
		u := (*[maxAxes]float64)(axes[maxAxes*i:])
		x0 += p * u[0]
		x1 += p * u[1]
		x2 += p * u[2]
		x3 += p * u[3]
	}
	cell := 0
	for a, x := range [maxAxes]float64{x0, x1, x2, x3} {
		cell = cell*r.side[a] + cellIndex(x-r.lo[a], r.side[a])
	}
	return int(r.first[cell])
}

// nearest returns the center a plain scan of every center in index order
// picks for pt — the lowest index of least squared distance, or (0,
// MaxFloat64) when no distance is below MaxFloat64 — with the same
// distance bits, while evaluating only the centers that can win.
func (r *KMeansReducer) nearest(pt []float64) (int, float64) {
	best, bestDist, _ := r.search(pt)
	return best, bestDist
}

// search is nearest, also returning how many distances it evaluated. This
// is the kmeans compute kernel.
//
// It evaluates the guess g first, then walks g's row of order — the other
// centers by their distance from g — and stops at the first center past
// g's own limit, glim: every center after it is farther from g still. It
// skips center j when cc[best][j] > lim for the running best. The triangle
// inequality gives |p−c_j| ≥ |c_b−c_j| − |p−c_b|, so a center more than
// twice as far from the best (or from g) as the point is cannot be nearer;
// the slack of 2⁻²⁰ and the floor cover the rounding and underflow of the
// computed distances, so every skipped center's computed distance is
// strictly above bestDist (the argument is in docs/PERFORMANCE.md, "Fold
// kernels"). A tie goes to the lower index whatever the walk's order. When
// g's distance is not below MaxFloat64, lim and glim are +Inf and the walk
// is a plain scan of g's row until a center wins; the best itself is
// skipped by its +Inf diagonal.
func (r *KMeansReducer) search(pt []float64) (best int, bestDist float64, evals int) {
	centers, cc, k := r.Params.Centers, r.cc, r.Params.K
	g := r.guess(pt)
	best, bestDist, lim, evals := 0, math.MaxFloat64, math.Inf(1), 1
	if d := sqDist(pt, centers[g]); d < bestDist {
		best, bestDist, lim = g, d, d*pruneSlack+pruneFloor
	}
	grow, glim, row := cc[g*k:g*k+k], lim, cc[best*k:best*k+k]
	for _, j := range r.order[g*k : g*k+k] {
		if grow[j] > glim {
			break
		}
		if row[j] > lim {
			continue
		}
		evals++
		if d := sqDist(pt, centers[j]); d <= bestDist && (d < bestDist || int(j) < best) {
			best, bestDist, lim = int(j), d, d*pruneSlack+pruneFloor
			row = cc[int(j)*k : int(j)*k+k]
		}
	}
	return best, bestDist, evals
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

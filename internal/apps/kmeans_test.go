package apps

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/workload"
)

// refKMeansAssign is the plain nearest-center scan, kept as the reference
// the pruned search must match bit for bit: every center in index order,
// its squared distance summed in coordinate order, the first strictly
// smaller one winning.
func refKMeansAssign(centers [][]float64, pt []float64) (int, float64) {
	best, bestDist := 0, math.MaxFloat64
	for k, c := range centers {
		var d float64
		for i, p := range pt {
			diff := p - c[i]
			d += diff * diff
		}
		if d < bestDist {
			best, bestDist = k, d
		}
	}
	return best, bestDist
}

// refKMeansFold folds one unit the way the plain-scan reducer did.
func refKMeansFold(o *KMeansObject, centers [][]float64, unit []byte) {
	pt := make([]float64, len(centers[0]))
	for i := range pt {
		pt[i] = float64(core.Float32At(unit, 4*i))
	}
	k, d := refKMeansAssign(centers, pt)
	for i, p := range pt {
		o.Sums[k][i] += p
	}
	o.Counts[k]++
	o.SSE += d
}

// sameKMeansObject reports whether two objects hold the same counts and the
// same float bits, except that any two NaNs match: which NaN a sum of ±Inf
// and NaN coordinates yields depends on the operand order the compiler
// picks for the addition.
func sameKMeansObject(a, b *KMeansObject) bool {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || x != x && y != y
	}
	if !same(a.SSE, b.SSE) {
		return false
	}
	for k := range a.Sums {
		if a.Counts[k] != b.Counts[k] {
			return false
		}
		for i := range a.Sums[k] {
			if !same(a.Sums[k][i], b.Sums[k][i]) {
				return false
			}
		}
	}
	return true
}

// TestKMeansAssignIsExact: the pruned search picks the center the plain
// scan picks, with the same distance bits, and the fold leaves the same
// object over arbitrary group splits. The trials cover dims 1 to 13, 1 to
// 64 centers, uniform, clustered, integer-grid (exact ties) and
// mirrored-pair data, duplicate centers, points sitting on a center or
// midway between two, center scales from 1e-310 to 1e160 (underflowing and
// overflowing squares), ±Inf and NaN point coordinates, and first guesses
// other than the table's; then degenerate center sets.
func TestKMeansAssignIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	scales := []float64{1, 1, 1, 1e-150, 1e-160, 1e-310, 1e30}
	for trial := 0; trial < 600; trial++ {
		dim, k := 1+rng.Intn(13), 1+rng.Intn(64)
		scale := scales[rng.Intn(len(scales))]
		mode := rng.Intn(4) // 0 uniform, 1 clustered, 2 integer grid, 3 mirrored pairs
		blobs := make([][]float64, 1+rng.Intn(k))
		for b := range blobs {
			blobs[b] = make([]float64, dim)
			for i := range blobs[b] {
				blobs[b][i] = float64(float32(rng.Float64() * scale))
			}
		}
		coord := func(blob []float64, i int) float64 {
			switch mode {
			case 1:
				return blob[i] + 0.05*scale*rng.NormFloat64()
			case 2:
				return float64(rng.Intn(5) - 2)
			case 3:
				return blob[i]
			}
			return rng.Float64() * scale
		}
		float32Centers := rng.Intn(2) == 0
		centers := make([][]float64, k)
		var blob []float64
		for j := range centers {
			if j > 0 && rng.Intn(6) == 0 {
				centers[j] = append([]float64(nil), centers[rng.Intn(j)]...)
				continue
			}
			centers[j] = make([]float64, dim)
			if mode != 3 || j%2 == 0 {
				blob = blobs[rng.Intn(len(blobs))]
			}
			far := 1.0 // a far center's distances and separations overflow
			if rng.Intn(10) == 0 {
				far = 1e160
			}
			for i := range centers[j] {
				if mode == 3 && j%2 == 1 {
					// The pair's midpoint, up to rounding, is the blob: a
					// point there sits on the pruning bound's boundary.
					centers[j][i] = 2*blob[i] - centers[j-1][i]
					continue
				}
				v := coord(blob, i)
				if mode == 3 {
					v += 0.1 * scale * rng.NormFloat64()
				}
				if float32Centers {
					v = float64(float32(v))
				}
				centers[j][i] = v * far
			}
		}
		r, err := NewKMeansReducer(KMeansParams{K: k, Dim: dim, Centers: centers})
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 { // any first guess must do, not just the grid's
			for c := range r.first {
				r.first[c] = uint16(rng.Intn(k))
			}
		}

		us := 4 * dim
		n := rng.Intn(300)
		data := make([]byte, 0, n*us)
		pt := make([]float64, dim)
		for u := 0; u < n; u++ {
			onCenter := rng.Intn(8) == 0
			center, blob := centers[rng.Intn(k)], blobs[rng.Intn(len(blobs))]
			for i := range pt {
				switch c := rng.Intn(60); {
				case onCenter:
					pt[i] = center[i]
				case c == 0:
					pt[i] = math.Inf(1)
				case c == 1:
					pt[i] = math.Inf(-1)
				case c == 2:
					pt[i] = math.NaN()
				default:
					pt[i] = coord(blob, i)
				}
				data = core.AppendFloat32(data, float32(pt[i]))
			}
			for i := range pt {
				pt[i] = float64(core.Float32At(data[u*us:], 4*i))
			}
			wantK, wantD := refKMeansAssign(centers, pt)
			gotK, gotD := r.nearest(pt)
			if gotK != wantK || math.Float64bits(gotD) != math.Float64bits(wantD) {
				t.Fatalf("trial %d (dim %d, K %d, scale %g, mode %d): point %v: got center %d at %v, want %d at %v",
					trial, dim, k, scale, mode, pt, gotK, gotD, wantK, wantD)
			}
			if aK, aD := r.Assign(data[u*us:]); aK != gotK || math.Float64bits(aD) != math.Float64bits(gotD) {
				t.Fatalf("trial %d: Assign gives %d at %v, the fold's search %d at %v", trial, aK, aD, gotK, gotD)
			}
		}

		want := r.NewObject().(*KMeansObject)
		for off := 0; off < len(data); off += us {
			refKMeansFold(want, centers, data[off:off+us])
		}
		got := r.NewObject()
		for off := 0; off < len(data); {
			end := min(off+us*rng.Intn(n/4+2), len(data))
			if err := r.LocalReduceGroup(got, data[off:end], us); err != nil {
				t.Fatal(err)
			}
			off = end
		}
		if !sameKMeansObject(got.(*KMeansObject), want) {
			t.Fatalf("trial %d (dim %d, K %d, scale %g, mode %d, %d points): fold differs from the plain scan's\n got  %+v\n want %+v",
				trial, dim, k, scale, mode, n, got, want)
		}
	}

	// Degenerate center sets at Dim 8, each its own trial: K 1, all centers
	// equal, and centers spread along exactly 1 (collinear), 2 or 3 random
	// directions, so the guess table splits only that many axes.
	drng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 100; trial++ {
		const dim = 8
		spread, k := trial%5-1, 2+drng.Intn(40) // spread -1: K 1; 0: all equal
		if spread < 0 {
			k = 1
		}
		base, dirs := make([]float64, dim), make([][]float64, max(spread, 0))
		for i := range base {
			base[i] = drng.NormFloat64()
		}
		for d := range dirs {
			dirs[d] = make([]float64, dim)
			for i := range dirs[d] {
				dirs[d][i] = drng.NormFloat64()
			}
		}
		centers := make([][]float64, k)
		for j := range centers {
			centers[j] = append([]float64(nil), base...)
			for _, dir := range dirs {
				t := float64(drng.Intn(9)) / 4 // repeated values tie exactly
				for i, x := range dir {
					centers[j][i] += t * x
				}
			}
		}
		r, err := NewKMeansReducer(KMeansParams{K: k, Dim: dim, Centers: centers})
		if err != nil {
			t.Fatal(err)
		}
		split := 0
		for _, n := range r.side {
			if n > 1 {
				split++
			}
		}
		if split > max(spread, 0) || spread == 1 && k > 1 && r.side[0] != guessCells {
			t.Fatalf("degenerate trial %d (spread along %d directions, K %d): guess table sides %v",
				trial, spread, k, r.side)
		}
		data := make([]byte, 0, 200*4*dim)
		pt := make([]float64, dim)
		for u := 0; u < 200; u++ {
			center := centers[drng.Intn(k)]
			for i := range pt {
				switch c := drng.Intn(100); {
				case c == 0:
					pt[i] = math.NaN()
				case c < 50:
					pt[i] = float64(float32(center[i] + 0.3*drng.NormFloat64()))
				default:
					pt[i] = float64(float32(center[i])) // on the center, or between centers
				}
				data = core.AppendFloat32(data, float32(pt[i]))
			}
			wantK, wantD := refKMeansAssign(centers, pt)
			if gotK, gotD := r.nearest(pt); gotK != wantK || math.Float64bits(gotD) != math.Float64bits(wantD) {
				t.Fatalf("degenerate trial %d (spread along %d directions, K %d): point %v: got center %d at %v, want %d at %v",
					trial, spread, k, pt, gotK, gotD, wantK, wantD)
			}
		}
		want, got := r.NewObject().(*KMeansObject), r.NewObject()
		for off := 0; off < len(data); off += 4 * dim {
			refKMeansFold(want, centers, data[off:off+4*dim])
		}
		if err := r.LocalReduceGroup(got, data, 4*dim); err != nil {
			t.Fatal(err)
		}
		if !sameKMeansObject(got.(*KMeansObject), want) {
			t.Fatalf("degenerate trial %d: fold differs from the plain scan's", trial)
		}
	}

	// The cases a bound without the margin gets wrong. A point midway
	// between two centers ties on both distances, yet the computed center
	// separation can round above 4× the computed distance; and two centers
	// 2⁻⁵³⁷ apart around a point at 0 are a positive separation from
	// distances that both underflow to 0. Each is tried with every first
	// guess, since the search must be exact whichever center it starts from.
	check := func(centers [][]float64, pt []float64) {
		t.Helper()
		r, err := NewKMeansReducer(KMeansParams{K: len(centers), Dim: len(pt), Centers: centers})
		if err != nil {
			t.Fatal(err)
		}
		wantK, wantD := refKMeansAssign(centers, pt)
		for guess := range centers {
			for c := range r.first {
				r.first[c] = uint16(guess)
			}
			if k, d := r.nearest(pt); k != wantK || math.Float64bits(d) != math.Float64bits(wantD) {
				t.Fatalf("centers %v, point %v, first guess %d: got center %d at %v, want %d at %v",
					centers, pt, guess, k, d, wantK, wantD)
			}
		}
	}
	check([][]float64{{-0x1p-538}, {0x1p-538}}, []float64{0})
	for found := 0; found < 100; {
		dim := 2 + rng.Intn(7)
		pt, a, b := make([]float64, dim), make([]float64, dim), make([]float64, dim)
		for i := range pt {
			pt[i] = float64(float32(rng.Float64()))
			a[i] = pt[i] + 0.1*rng.NormFloat64()
			b[i] = 2*pt[i] - a[i]
		}
		_, da := refKMeansAssign([][]float64{a}, pt)
		_, db := refKMeansAssign([][]float64{b}, pt)
		if _, sep := refKMeansAssign([][]float64{a}, b); da == db && sep > 4*da {
			check([][]float64{a, b}, pt)
			found++
		}
	}

	// A point with a NaN coordinate is nearer no center: it lands on center
	// 0 at MaxFloat64, as it did under the plain scan.
	r, err := NewKMeansReducer(KMeansParams{K: 3, Dim: 2, Centers: [][]float64{{5, 5}, {0, 0}, {1, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if k, d := r.nearest([]float64{0, math.NaN()}); k != 0 || d != math.MaxFloat64 {
		t.Errorf("NaN point: center %d at %v, want 0 at MaxFloat64", k, d)
	}
}

// TestKMeansRejectsBadUnitSize: a group whose unit size is not 4·Dim, or
// whose length is not a whole number of units, is a malformed payload —
// not a fold of each unit's prefix, nor an index panic in an engine worker.
func TestKMeansRejectsBadUnitSize(t *testing.T) {
	r, err := NewKMeansReducer(KMeansParams{K: 2, Dim: 4, Centers: [][]float64{{0, 0, 0, 0}, {1, 1, 1, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	obj := r.NewObject()
	for _, c := range []struct{ group, unitSize int }{{64, 8}, {64, 32}, {40, 16}, {0, 4}} {
		if err := r.LocalReduceGroup(obj, make([]byte, c.group), c.unitSize); !errors.Is(err, core.ErrBadPayload) {
			t.Errorf("%d bytes in %d-byte units: err = %v, want core.ErrBadPayload", c.group, c.unitSize, err)
		}
	}
	for _, n := range []int{4, 20} {
		if err := r.LocalReduce(obj, make([]byte, n)); !errors.Is(err, core.ErrBadPayload) {
			t.Errorf("%d-byte unit: err = %v, want core.ErrBadPayload", n, err)
		}
	}
	if o := obj.(*KMeansObject); o.Counts[0]+o.Counts[1] != 0 {
		t.Errorf("rejected groups folded %d points", o.Counts[0]+o.Counts[1])
	}
}

// TestKMeansGuessQuality holds the search's work on
// BenchmarkKMeansClusteredKernel's data (64 000 8-d points in 32 blobs, K
// 32, centers after 5 Lloyd rounds): the first guess must be the plain
// scan's answer for most points, and the search must evaluate few centers
// per point. The two-axis grid this table replaced read 69 % and 5.2.
func TestKMeansGuessQuality(t *testing.T) {
	gen := workload.ClusteredPoints{Seed: 2, Dim: 8, K: 32, Spread: 0.05}
	const units = 64_000
	ix, err := chunk.Layout("bp", units, gen.UnitSize(), units/4, units/32)
	if err != nil {
		t.Fatal(err)
	}
	src := chunk.NewMemSource(ix)
	if err := workload.Build(ix, gen, src); err != nil {
		t.Fatal(err)
	}
	seeds, err := SeedCenters(ix, src, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	centers, _, err := KMeansIterate(ix, src, KMeansParams{K: 32, Dim: 8, Centers: seeds}, 1, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewKMeansReducer(KMeansParams{K: 32, Dim: 8, Centers: centers})
	if err != nil {
		t.Fatal(err)
	}
	var pts [][]float64
	for _, f := range ix.Files {
		for _, ref := range f.Chunks {
			data, err := src.ReadChunk(ref)
			if err != nil {
				t.Fatal(err)
			}
			for off := 0; off < len(data); off += ix.UnitSize {
				pt := make([]float64, 8)
				workload.DecodePoint(data[off:off+ix.UnitSize], pt)
				pts = append(pts, pt)
			}
		}
	}
	right, evals := r.searchCounts(pts)
	hit, perPoint := float64(right)/float64(len(pts)), float64(evals)/float64(len(pts))
	t.Logf("first guess right for %.1f %% of %d points; %.2f centers evaluated per point", 100*hit, len(pts), perPoint)
	if hit < 0.78 {
		t.Errorf("first guess right for %.1f %% of points, want ≥ 78 %%", 100*hit)
	}
	if perPoint > 3 {
		t.Errorf("%.2f centers evaluated per point, want ≤ 3", perPoint)
	}
}

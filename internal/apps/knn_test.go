package apps

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
)

// refKNNFold is the per-unit kNN fold without partial distance search,
// kept as the reference the kernel must match bit for bit: the full
// distance of every point in the same ×4-unrolled order, then a sorted
// insert of a freshly decoded point. A NaN distance is never a neighbor.
func refKNNFold(o *KNNObject, q []float64, unit []byte) {
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
	}
	for ; i < len(q); i++ {
		diff := float64(core.Float32At(unit, 4*i)) - q[i]
		d += diff * diff
	}
	if math.IsNaN(d) || len(o.Best) == o.K && d >= o.Best[len(o.Best)-1].Dist {
		return
	}
	pt := make([]float64, len(q))
	for i := range pt {
		pt[i] = float64(core.Float32At(unit, 4*i))
	}
	at := sort.Search(len(o.Best), func(i int) bool { return o.Best[i].Dist > d })
	o.Best = append(o.Best, Neighbor{})
	copy(o.Best[at+1:], o.Best[at:])
	o.Best[at] = Neighbor{Dist: d, Point: pt}
	if len(o.Best) > o.K {
		o.Best = o.Best[:o.K]
	}
}

// sameNeighbors reports the first difference between two k-best lists,
// comparing every distance and coordinate by its bits.
func sameNeighbors(got, want []Neighbor) (string, bool) {
	if len(got) != len(want) {
		return "length", false
	}
	for i := range want {
		if math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return "dist", false
		}
		if len(got[i].Point) != len(want[i].Point) {
			return "point length", false
		}
		for d := range want[i].Point {
			if math.Float64bits(got[i].Point[d]) != math.Float64bits(want[i].Point[d]) {
				return "point", false
			}
		}
	}
	return "", true
}

// TestKNNFoldIsExact: the partial-distance kernel keeps exactly the points
// the full-distance fold keeps, with the same distance and coordinate bits,
// over dims that exercise the tail loop, duplicate points (distance ties),
// infinite and NaN coordinates, and arbitrary group splits.
func TestKNNFoldIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	coord := func() float32 {
		switch rng.Intn(40) {
		case 0:
			return float32(math.Inf(1))
		case 1:
			return float32(math.Inf(-1))
		case 2:
			return float32(math.NaN())
		}
		return float32(rng.NormFloat64())
	}
	for trial := 0; trial < 300; trial++ {
		dim, k := 1+rng.Intn(13), 1+rng.Intn(16)
		q := make([]float64, dim)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		r, err := NewKNNReducer(KNNParams{K: k, Dim: dim, Query: q})
		if err != nil {
			t.Fatal(err)
		}
		us := 4 * dim
		n := rng.Intn(400)
		data := make([]byte, 0, n*us)
		for u := 0; u < n; u++ {
			if u > 0 && rng.Intn(6) == 0 { // a duplicate of an earlier point
				prev := rng.Intn(u)
				data = append(data, data[prev*us:(prev+1)*us]...)
				continue
			}
			for i := 0; i < dim; i++ {
				data = core.AppendFloat32(data, coord())
			}
		}

		want := &KNNObject{K: k}
		for off := 0; off < len(data); off += us {
			refKNNFold(want, q, data[off:off+us])
		}
		got := r.NewObject().(*KNNObject)
		for off := 0; off < len(data); {
			end := off + us*rng.Intn(n/4+2)
			if end > len(data) {
				end = len(data)
			}
			if err := r.LocalReduceGroup(got, data[off:end], us); err != nil {
				t.Fatal(err)
			}
			off = end
		}
		if what, ok := sameNeighbors(got.Best, want.Best); !ok {
			t.Fatalf("trial %d (dim %d, K %d, %d points): %s differs\n got  %v\n want %v",
				trial, dim, k, n, what, got.Best, want.Best)
		}
	}
}

// TestKNNNaNIsNeverANeighbor: points with a NaN coordinate never enter the
// k-best list, so the answer is the same whatever the fold order and
// whichever way two partial objects are merged — the global reduction must
// not depend on steal order — and equals the brute force over the finite
// points.
func TestKNNNaNIsNeverANeighbor(t *testing.T) {
	const dim, k, n = 3, 4, 40
	rng := rand.New(rand.NewSource(7))
	var units [][]byte
	var finite [][]float64
	for u := 0; u < n; u++ {
		pt := make([]float64, dim)
		for i := range pt {
			pt[i] = float64(float32(rng.Float64()))
		}
		if u%5 == 0 {
			pt[rng.Intn(dim)] = math.NaN()
		} else {
			finite = append(finite, pt)
		}
		var unit []byte
		for _, c := range pt {
			unit = core.AppendFloat32(unit, float32(c))
		}
		units = append(units, unit)
	}
	p := knnParams(dim, k)
	r, err := NewKNNReducer(p)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(obj core.Object) []byte {
		b, err := r.Encode(obj)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := encode(&KNNObject{K: k, Best: BruteForceKNN(finite, p.Query, k)})
	nanFirst := append([][]float64{{math.NaN(), 0, 0}}, finite...)
	if got := encode(&KNNObject{K: k, Best: BruteForceKNN(nanFirst, p.Query, k)}); !bytes.Equal(got, want) {
		t.Fatal("BruteForceKNN kept a NaN point")
	}
	for trial := 0; trial < 100; trial++ {
		whole, a, b := r.NewObject(), r.NewObject(), r.NewObject()
		for j, u := range rng.Perm(n) {
			half := a
			if j%2 == 1 {
				half = b
			}
			for _, obj := range []core.Object{whole, half} {
				if err := r.LocalReduce(obj, units[u]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := encode(whole); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: one object folded in a shuffled order differs from the brute force", trial)
		}
		for _, pair := range [][2]core.Object{{a, b}, {b, a}} {
			dst := r.NewObject()
			for _, src := range pair {
				if err := r.GlobalReduce(dst, src); err != nil {
					t.Fatal(err)
				}
			}
			if got := encode(dst); !bytes.Equal(got, want) {
				t.Fatalf("trial %d: two halves merged differ from the brute force", trial)
			}
		}
	}
}

// TestKNNObjectsOwnTheirPoints: a fold reuses an evicted neighbor's point
// slice, so no object may share a point with another. A snapshot taken
// while the engine keeps folding, and the source of a GlobalReduce whose
// destination keeps folding, must keep their encodings.
func TestKNNObjectsOwnTheirPoints(t *testing.T) {
	const dim, k = 2, 3
	r, err := NewKNNReducer(knnParams(dim, k))
	if err != nil {
		t.Fatal(err)
	}
	// far then near: every near point evicts a far one.
	batch := func(coords ...float32) []byte {
		var b []byte
		for _, c := range coords {
			b = core.AppendFloat32(core.AppendFloat32(b, c), c)
		}
		return b
	}
	far, near := batch(0.9, 0.8, 0.7, 0.95), batch(0.45, 0.55, 0.51, 0.49)
	encode := func(obj core.Object) []byte {
		b, err := r.Encode(obj)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	e, err := core.NewEngine(core.EngineConfig{Reducer: r, Workers: 1, UnitSize: 4 * dim})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(far); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	before := encode(snap)
	if err := e.Submit(near); err != nil {
		t.Fatal(err)
	}
	final, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(encode(final), before) {
		t.Fatal("the near points evicted nothing; the test proves nothing")
	}
	if !bytes.Equal(encode(snap), before) {
		t.Error("folding after Engine.Snapshot changed the snapshot")
	}

	dst, src := r.NewObject(), r.NewObject()
	if err := r.LocalReduceGroup(src, far, 4*dim); err != nil {
		t.Fatal(err)
	}
	if err := r.GlobalReduce(dst, src); err != nil {
		t.Fatal(err)
	}
	before = encode(src)
	if err := r.LocalReduceGroup(dst, near, 4*dim); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(src), before) {
		t.Error("folding into a GlobalReduce destination changed its source")
	}
}

// TestKNNRejectsBadUnitSize: a group whose unit size is not 4·Dim, or
// whose length is not a whole number of units, is a malformed payload,
// not an index panic in an engine worker.
func TestKNNRejectsBadUnitSize(t *testing.T) {
	r, err := NewKNNReducer(knnParams(8, 3))
	if err != nil {
		t.Fatal(err)
	}
	obj := r.NewObject()
	for _, c := range []struct{ group, unitSize int }{{64, 4}, {64, 64}, {40, 32}, {0, 16}} {
		if err := r.LocalReduceGroup(obj, make([]byte, c.group), c.unitSize); !errors.Is(err, core.ErrBadPayload) {
			t.Errorf("%d bytes in %d-byte units: err = %v, want core.ErrBadPayload", c.group, c.unitSize, err)
		}
	}
	if err := r.LocalReduce(obj, make([]byte, 4)); !errors.Is(err, core.ErrBadPayload) {
		t.Errorf("4-byte unit: err = %v, want core.ErrBadPayload", err)
	}
	if got := obj.(*KNNObject).Best; len(got) != 0 {
		t.Errorf("rejected groups folded %d points", len(got))
	}
}

// TestKNNDecodeRefusesMoreThanK: an object holding more than K neighbors is
// malformed. The head merges into the first object it decodes, and a list
// longer than K would stay longer than K.
func TestKNNDecodeRefusesMoreThanK(t *testing.T) {
	big, err := NewKNNReducer(knnParams(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	obj := big.NewObject()
	if err := big.LocalReduceGroup(obj, make([]byte, 3*8), 8); err != nil {
		t.Fatal(err)
	}
	enc, err := big.Encode(obj)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := big.Decode(enc); err != nil {
		t.Fatalf("K=3 refused its own 3 neighbors: %v", err)
	}
	small, err := NewKNNReducer(knnParams(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.Decode(enc); err == nil {
		t.Error("K=2 decoded an object holding 3 neighbors")
	}
}

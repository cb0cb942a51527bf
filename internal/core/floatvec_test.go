package core

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// vecHeader is the largest fixed overhead of an encoded vector of n
// entries: the uvarint length, the default's bits and the tag.
func vecHeader(n int) int { return len(binary.AppendUvarint(nil, uint64(n))) + 8 + 1 }

func sameBits(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("entry %d = %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// encodeBoth returns the dense-tag and sparse-tag encodings of vs.
func encodeBoth(vs []float64, def float64) (dense, sparse []byte) {
	defBits := math.Float64bits(def)
	stored := 0
	for _, v := range vs {
		if math.Float64bits(v) != defBits {
			stored++
		}
	}
	return appendFloat64Vector(nil, vs, defBits, stored, vecDense),
		appendFloat64Vector(nil, vs, defBits, stored, vecSparse)
}

func TestFloat64VectorRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef) // NaN with a payload
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(7))
	mixed := make([]float64, 1003) // len % 8 != 0
	for i := range mixed {
		if rng.Intn(3) > 0 {
			mixed[i] = rng.NormFloat64()
		}
	}
	allStored := make([]float64, 64)
	for i := range allStored {
		allStored[i] = float64(i + 1)
	}
	cases := []struct {
		name string
		vs   []float64
		def  float64
	}{
		{"empty", nil, 0},
		{"all-default", make([]float64, 100), 0},
		{"all-stored", allStored, 0},
		{"mixed", mixed, 0},
		{"one-entry", []float64{3}, 0},
		{"seven-entries", []float64{0, 1, 0, 2, 0, 0, 3}, 0},
		{"nine-entries", []float64{0, 0, 0, 0, 0, 0, 0, 0, 9}, 0},
		{"neg-zero-is-not-zero", []float64{0, negZero, 0, negZero, 0, 0, 0, 0, 0, 0}, 0},
		{"nan-inf", []float64{nan, 0, math.Inf(1), 0, math.Inf(-1), 0, 0, 0, math.NaN(), 0, 0}, 0},
		{"nan-default", []float64{nan, nan, nan, 1, nan, nan, nan, nan, nan, math.NaN()}, nan},
		{"nonzero-default", []float64{0.15, 0.15, 2, 0.15, 0.15, 0.15, 0.15, 0.15, 0.15, 0.15, 0.15, 0}, 0.15},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			enc := AppendFloat64Vector(nil, c.vs, c.def)
			got, err := DecodeFloat64Vector(enc, len(c.vs))
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, got, c.vs)
			if max := vecHeader(len(c.vs)) + 8*len(c.vs); len(enc) > max {
				t.Errorf("encoded %d bytes, more than dense + header = %d", len(enc), max)
			}
			// Both layouts carry the same vector, whichever the encoder picked.
			dense, sparse := encodeBoth(c.vs, c.def)
			if len(enc) != min(len(dense), len(sparse)) {
				t.Errorf("encoder picked %d bytes; dense is %d, sparse %d", len(enc), len(dense), len(sparse))
			}
			for _, e := range [][]byte{dense, sparse} {
				got, err := DecodeFloat64Vector(e, len(c.vs))
				if err != nil {
					t.Fatalf("tag %d: %v", e[vecHeader(len(c.vs))-1], err)
				}
				sameBits(t, got, c.vs)
			}
			// Appending leaves what is already in the buffer alone.
			if withPrefix := AppendFloat64Vector([]byte("xy"), c.vs, c.def); string(withPrefix[:2]) != "xy" || string(withPrefix[2:]) != string(enc) {
				t.Error("AppendFloat64Vector disturbed its prefix")
			}
		})
	}
}

// TestFloat64VectorSizes pins the layout arithmetic: a vector with nothing
// to suppress costs exactly dense + header, and suppression pays a bit per
// entry plus 8 bytes per survivor.
func TestFloat64VectorSizes(t *testing.T) {
	vs := make([]float64, 1000)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	if got, want := len(AppendFloat64Vector(nil, vs, 0)), vecHeader(1000)+8000; got != want {
		t.Errorf("no default entries: %d bytes, want %d (dense)", got, want)
	}
	for i := 0; i < 400; i++ {
		vs[i] = 0
	}
	if got, want := len(AppendFloat64Vector(nil, vs, 0)), vecHeader(1000)+125+8*600; got != want {
		t.Errorf("400 of 1000 suppressed: %d bytes, want %d (sparse)", got, want)
	}
}

type hostileVector struct {
	name string
	data []byte
	want int
}

// hostileVectors are malformed encodings, each one edit away from a valid
// one; shared by the table test and the fuzz corpus.
func hostileVectors() []hostileVector {
	vs := []float64{0, 1, 0, 2, 0, 0, 3, 0, 0, 4} // 10 entries, 4 stored
	dense, sparse := encodeBoth(vs, 0)
	hdr := vecHeader(len(vs))
	edit := func(b []byte, f func([]byte) []byte) []byte { return f(append([]byte(nil), b...)) }
	huge := binary.AppendUvarint(nil, 1<<40)
	return []hostileVector{
		{"empty", nil, 10},
		{"length-prefix-only", sparse[:1], 10},
		{"length-prefix-unterminated", []byte{0x80, 0x80}, 10},
		{"header-truncated", sparse[:hdr-1], 10},
		{"no-body", sparse[:hdr], 10},
		{"bitmap-truncated", sparse[:hdr+1], 10},
		{"values-truncated", sparse[:len(sparse)-3], 10},
		{"values-missing-one", sparse[:len(sparse)-8], 10},
		{"dense-truncated", dense[:len(dense)-1], 10},
		{"length-below-nodes", sparse, 11},
		{"length-above-nodes", sparse, 9},
		{"negative-want", sparse, -1},
		{"unknown-tag", edit(sparse, func(b []byte) []byte { b[hdr-1] = 2; return b }), 10},
		{"stray-bitmap-bits", edit(sparse, func(b []byte) []byte { b[hdr+1] |= 0x80; return append(b, make([]byte, 8)...) }), 10},
		{"trailing-bytes-sparse", append(append([]byte(nil), sparse...), 0), 10},
		{"trailing-bytes-dense", append(append([]byte(nil), dense...), 0), 10},
		// Declared lengths far beyond the input: matching want, so only the
		// size checks stand between the header and a huge allocation.
		{"huge-dense", append(append(append([]byte(nil), huge...), make([]byte, 8)...), vecDense, 1, 2, 3), 1 << 40},
		{"huge-sparse", append(append(append([]byte(nil), huge...), make([]byte, 8)...), vecSparse, 1, 2, 3), 1 << 40},
		{"megabyte-dense-short", append(append(binary.AppendUvarint(nil, 1<<20), make([]byte, 8)...), append([]byte{vecDense}, make([]byte, 1<<18)...)...), 1 << 20},
		{"megabyte-sparse-short", append(append(binary.AppendUvarint(nil, 1<<20), make([]byte, 8)...), append([]byte{vecSparse}, make([]byte, 1<<17-1)...)...), 1 << 20},
	}
}

func TestDecodeFloat64VectorRejectsHostileInput(t *testing.T) {
	for _, c := range hostileVectors() {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			vs, err := DecodeFloat64Vector(c.data, c.want)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadPayload) {
				t.Fatalf("err = %v (decoded %d entries), want ErrBadPayload", err, len(vs))
			}
			// Rejection costs an error value, never a buffer sized by the
			// declared length (8 bytes per entry: megabytes to terabytes
			// in the cases that declare more than they carry).
			if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
				t.Errorf("rejecting allocated %d bytes", got)
			}
		})
	}
}

func FuzzDecodeFloat64Vector(f *testing.F) {
	for _, c := range hostileVectors() {
		f.Add(c.data, c.want)
	}
	dense, sparse := encodeBoth([]float64{0, 1, 0, 2, 0, 0, 3, 0, 0, 4}, 0)
	f.Add(dense, 10)
	f.Add(sparse, 10)
	f.Add(AppendFloat64Vector(nil, nil, 0), 0)

	f.Fuzz(func(t *testing.T, data []byte, want int) {
		vs, err := DecodeFloat64Vector(data, want)
		if err != nil {
			if !errors.Is(err, ErrBadPayload) {
				t.Fatalf("error %v does not wrap ErrBadPayload", err)
			}
			return
		}
		if len(vs) != want {
			t.Fatalf("decoded %d entries, want %d", len(vs), want)
		}
		// Whatever decoded must survive the encoder's own choice of layout.
		_, k := binary.Uvarint(data)
		def := Float64At(data, k)
		back, err := DecodeFloat64Vector(AppendFloat64Vector(nil, vs, def), want)
		if err != nil {
			t.Fatalf("re-decoding: %v", err)
		}
		sameBits(t, back, vs)
	})
}

package apps

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
)

// TestParamsRoundTripThroughFactory: what Encode*Params writes is what the
// registry factory — the path a master takes from a JobSpec — hands the
// reducer.
func TestParamsRoundTripThroughFactory(t *testing.T) {
	knn := KNNParams{K: 3, Dim: 2, Query: []float64{0.25, math.Copysign(0, -1)}}
	kmeans := KMeansParams{K: 2, Dim: 3, Centers: [][]float64{{0, 1, 2}, {-1, math.Inf(1), 1e-300}}}
	hist := HistogramParams{Bins: 7, Dim: 4}
	prUniform := PageRankParams{Nodes: 9, Damping: 0.85}
	// Ranks as a round produces them: nodes nothing points at hold the base
	// value the encoder suppresses.
	prRanks := PageRankParams{Nodes: 9, Damping: 0.85,
		Ranks: NextRanks(&PageRankObject{Incoming: []float64{0, 0.5, 0, 0, 0.125, 0, 0, 0, 0.25}}, 0.85)}
	prDense := PageRankParams{Nodes: 3, Damping: 0.5, Ranks: []float64{0.1, 0.2, 0.3}}

	cases := []struct {
		app    string
		encode func() ([]byte, error)
		want   any
		got    func(core.Reducer) any
	}{
		{KNNReducerName, func() ([]byte, error) { return EncodeKNNParams(knn) }, knn,
			func(r core.Reducer) any { return r.(*KNNReducer).Params }},
		{KMeansReducerName, func() ([]byte, error) { return EncodeKMeansParams(kmeans) }, kmeans,
			func(r core.Reducer) any { return r.(*KMeansReducer).Params }},
		{HistogramReducerName, func() ([]byte, error) { return EncodeHistogramParams(hist) }, hist,
			func(r core.Reducer) any { return r.(*HistogramReducer).Params }},
		{PageRankReducerName, func() ([]byte, error) { return EncodePageRankParams(prUniform) }, prUniform,
			func(r core.Reducer) any { return r.(*PageRankReducer).Params }},
		{PageRankReducerName, func() ([]byte, error) { return EncodePageRankParams(prRanks) }, prRanks,
			func(r core.Reducer) any { return r.(*PageRankReducer).Params }},
		{PageRankReducerName, func() ([]byte, error) { return EncodePageRankParams(prDense) }, prDense,
			func(r core.Reducer) any { return r.(*PageRankReducer).Params }},
	}
	for _, c := range cases {
		enc, err := c.encode()
		if err != nil {
			t.Fatalf("%s: %v", c.app, err)
		}
		r, err := core.NewReducer(c.app, enc)
		if err != nil {
			t.Fatalf("%s: factory rejected its own encoding: %v", c.app, err)
		}
		// DeepEqual compares floats with ==, which is exact here: no NaNs,
		// and -0 is checked by bits below.
		if got := c.got(r); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: factory saw %+v, encoded %+v", c.app, got, c.want)
		}
		// Every strict prefix and any padding is refused, typed.
		for cut := 0; cut < len(enc); cut++ {
			if _, err := core.NewReducer(c.app, enc[:cut]); !errors.Is(err, core.ErrBadPayload) {
				t.Errorf("%s: %d-byte prefix of %d: err = %v, want core.ErrBadPayload", c.app, cut, len(enc), err)
			}
		}
		if _, err := core.NewReducer(c.app, append(append([]byte(nil), enc...), 0)); !errors.Is(err, core.ErrBadPayload) {
			t.Errorf("%s: trailing byte: err = %v, want core.ErrBadPayload", c.app, err)
		}
	}
	r, _ := core.NewReducer(KNNReducerName, mustEncode(t, EncodeKNNParams, knn))
	if q := r.(*KNNReducer).Params.Query[1]; !math.Signbit(q) {
		t.Errorf("-0 query coordinate came back as %v", q)
	}
}

func mustEncode[P any](t testing.TB, enc func(P) ([]byte, error), p P) []byte {
	t.Helper()
	b, err := enc(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestInvalidParamsSurviveToValidate: out-of-range fields (a negative K, a
// short query) are carried faithfully so the factory's Validate names them,
// instead of being mangled into a decode error.
func TestInvalidParamsSurviveToValidate(t *testing.T) {
	enc := mustEncode(t, EncodeKNNParams, KNNParams{K: -1, Dim: 2, Query: []float64{1}})
	p, err := decodeKNNParams(enc)
	if err != nil {
		t.Fatal(err)
	}
	if p.K != -1 || p.Dim != 2 || len(p.Query) != 1 {
		t.Errorf("decoded %+v", p)
	}
	if _, err := core.NewReducer(KNNReducerName, enc); err == nil || errors.Is(err, core.ErrBadPayload) {
		t.Errorf("factory error = %v, want a validation error", err)
	}
}

// goodPageRankParams is the valid payload the hostile ones are edits of:
// ten ranks as NextRanks leaves them, six at the suppressed base value, so
// the vector is in the sparse layout (two bitmap bytes, four values).
func goodPageRankParams() []byte {
	ranks := NextRanks(&PageRankObject{Incoming: []float64{0, 1, 0, 2, 0, 0, 3, 0, 0, 4}}, 0.85)
	good, _ := EncodePageRankParams(PageRankParams{Nodes: 10, Damping: 0.85, Ranks: ranks})
	return good
}

type hostileParams struct {
	name string
	data []byte
}

// hostilePageRankParams are malformed parameter payloads, each one edit
// away from a valid one; shared by the table test and the fuzz corpus.
func hostilePageRankParams() []hostileParams {
	good := goodPageRankParams()
	noRanks, _ := EncodePageRankParams(PageRankParams{Nodes: 10, Damping: 0.85})
	const hdr = 1 + 8 + 1 // Nodes varint, Damping, has-ranks
	const vec = hdr + 1 + 8 + 1
	edit := func(f func([]byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	huge := core.AppendFloat64(binary.AppendVarint(nil, 1<<40), 0.85)
	hugeVec := append(binary.AppendUvarint(append(append([]byte(nil), huge...), 1), 1<<40), make([]byte, 8)...)
	return []hostileParams{
		{"empty", nil},
		{"nodes-unterminated", []byte{0x80}},
		{"damping-truncated", good[:5]},
		{"no-flag", good[:hdr-1]},
		{"bad-flag", edit(func(b []byte) []byte { b[hdr-1] = 2; return b })},
		{"flag-without-vector", good[:hdr]},
		{"vector-header-truncated", good[:vec-1]},
		{"bitmap-truncated", good[:vec+1]},
		{"values-truncated", good[:len(good)-1]},
		{"unknown-tag", edit(func(b []byte) []byte { b[vec-1] = 7; return b })},
		{"stray-bitmap-bits", edit(func(b []byte) []byte { b[vec+1] |= 0x40; return append(b, make([]byte, 8)...) })},
		{"vector-length-not-nodes", edit(func(b []byte) []byte { b[hdr] = 11; return b })},
		{"nodes-not-vector-length", edit(func(b []byte) []byte { b[0] = 2 * 12; return b })},
		{"trailing-after-vector", append(append([]byte(nil), good...), 0)},
		{"trailing-without-ranks", append(append([]byte(nil), noRanks...), 0)},
		{"huge-nodes-dense", append(append([]byte(nil), hugeVec...), 0, 1, 2, 3)},
		{"huge-nodes-sparse", append(append([]byte(nil), hugeVec...), 1, 1, 2, 3)},
	}
}

func TestPageRankParamsRejectHostileInput(t *testing.T) {
	good := goodPageRankParams()
	if want := 10 + 10 + 2 + 4*8; len(good) != want {
		t.Fatalf("valid payload is %d bytes, want %d (sparse ranks): the table's offsets are off", len(good), want)
	}
	if _, err := core.NewReducer(PageRankReducerName, good); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	for _, c := range hostilePageRankParams() {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := core.NewReducer(PageRankReducerName, c.data)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, core.ErrBadPayload) {
				t.Fatalf("err = %v, want core.ErrBadPayload", err)
			}
			// See core.TestDecodeFloat64VectorRejectsHostileInput.
			if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
				t.Errorf("rejecting allocated %d bytes", got)
			}
		})
	}
}

func FuzzPageRankParams(f *testing.F) {
	for _, c := range hostilePageRankParams() {
		f.Add(c.data)
	}
	f.Add(mustEncode(f, EncodePageRankParams, PageRankParams{Nodes: 4, Damping: 0.85}))
	f.Add(goodPageRankParams())

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := decodePageRankParams(data)
		if err != nil {
			if !errors.Is(err, core.ErrBadPayload) {
				t.Fatalf("error %v does not wrap core.ErrBadPayload", err)
			}
			return
		}
		if p.Ranks != nil && len(p.Ranks) != p.Nodes {
			t.Fatalf("decoded %d ranks for %d nodes", len(p.Ranks), p.Nodes)
		}
		// The encoder is the source of truth for the layout: what decoded
		// must re-encode to something that decodes to the same bits.
		p2, err := decodePageRankParams(mustEncode(t, EncodePageRankParams, p))
		if err != nil {
			t.Fatalf("re-decoding: %v", err)
		}
		if p2.Nodes != p.Nodes || math.Float64bits(p2.Damping) != math.Float64bits(p.Damping) || (p2.Ranks == nil) != (p.Ranks == nil) {
			t.Fatalf("round trip %+v -> %+v", p, p2)
		}
		for i := range p.Ranks {
			if math.Float64bits(p2.Ranks[i]) != math.Float64bits(p.Ranks[i]) {
				t.Fatalf("rank %d: %x -> %x", i, math.Float64bits(p.Ranks[i]), math.Float64bits(p2.Ranks[i]))
			}
		}
		// The factory builds a uniform vector of Nodes entries when there
		// are no ranks, so only hand it sizes a test can afford.
		if p.Nodes <= 1<<12 {
			if _, err := core.NewReducer(PageRankReducerName, data); err != nil && errors.Is(err, core.ErrBadPayload) {
				t.Fatalf("factory calls a decodable payload malformed: %v", err)
			}
		}
	})
}

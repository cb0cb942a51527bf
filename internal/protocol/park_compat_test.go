package protocol

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"
)

// parkSpans is the span block the pre-park frames below carry.
var parkSpans = []WireSpan{
	{Trace: TraceContext{TraceID: 1, SpanID: 2}, Name: "job 3", Cat: "job", TID: 1, Query: 1, Job: 3, Start: 10, Dur: 20},
}

// preParkPollBody hand-builds the PRE-PARK PollRequest body for (site 2,
// n 9): the fixed fields, then — when now or spans are given — the span
// block. The layout is the compat contract with already-deployed masters.
func preParkPollBody(now int64, spans []WireSpan) []byte {
	b := []byte{tagPollRequest}
	b = appendInt(b, 2)
	b = appendInt(b, 9)
	if now == 0 && len(spans) == 0 {
		return b
	}
	b = appendI64(b, now)
	b = appendU32(b, uint32(len(spans)))
	for _, s := range spans {
		b = appendTrace(b, s.Trace)
		b = appendStr(b, s.Name)
		b = appendStr(b, s.Cat)
		b = appendU32(b, uint32(s.TID))
		b = appendU32(b, uint32(s.Query))
		b = appendInt(b, s.Job)
		b = appendI64(b, s.Start)
		b = appendI64(b, s.Dur)
	}
	return b
}

type preParkCase struct {
	name  string
	msg   PollRequest
	frame []byte
}

func preParkFrames() []preParkCase {
	return []preParkCase{
		{"bare", PollRequest{Site: 2, N: 9}, buildFrame(preParkPollBody(0, nil))},
		{"clock sample", PollRequest{Site: 2, N: 9, NowNS: 55}, buildFrame(preParkPollBody(55, nil))},
		{"spans", PollRequest{Site: 2, N: 9, NowNS: 55, Spans: parkSpans}, buildFrame(preParkPollBody(55, parkSpans))},
	}
}

// TestZeroParkEncodesBitIdentical: a request that does not park goes on the
// wire exactly as before the park word existed, with and without spans, and
// such frames decode with ParkNS zero.
func TestZeroParkEncodesBitIdentical(t *testing.T) {
	for _, tc := range preParkFrames() {
		got, err := AppendFrame(nil, tc.msg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, tc.frame) {
			t.Errorf("%s: zero-park frame differs from the pre-park layout:\n got %x\nwant %x", tc.name, got, tc.frame)
		}
		dec, n, err := DecodeFrame(tc.frame)
		if err != nil || n != len(tc.frame) {
			t.Fatalf("%s: decoding the pre-park frame: n=%d err=%v", tc.name, n, err)
		}
		if !reflect.DeepEqual(dec, Message(tc.msg)) {
			t.Errorf("%s: pre-park decode:\n got %#v\nwant %#v", tc.name, dec, tc.msg)
		}
	}
}

// TestParkWordTrailsSpanBlock: a parking request is the pre-park frame plus
// one 8-byte word, and on a bare request it forces the empty span block onto
// the wire ahead of itself.
func TestParkWordTrailsSpanBlock(t *testing.T) {
	for _, tc := range preParkFrames() {
		in := tc.msg
		in.ParkNS = 20e6
		got, err := AppendFrame(nil, in)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body := append([]byte(nil), tc.frame[4:]...)
		if tc.msg.NowNS == 0 && len(tc.msg.Spans) == 0 {
			body = appendU32(appendI64(body, 0), 0) // the forced empty span block
		}
		if want := buildFrame(appendI64(body, 20e6)); !bytes.Equal(got, want) {
			t.Errorf("%s: parking frame:\n got %x\nwant %x", tc.name, got, want)
		}
		dec, _, err := DecodeFrame(got)
		if err != nil || !reflect.DeepEqual(dec, Message(in)) {
			t.Errorf("%s: round trip: got %#v, %v; want %#v", tc.name, dec, err, in)
		}
	}
}

type namedFrame struct {
	name  string
	frame []byte
}

// malformedParkFrames are the ways the bytes after a span block can fail to
// be one non-zero park word.
func malformedParkFrames() []namedFrame {
	var out []namedFrame
	for _, spans := range [][]WireSpan{nil, parkSpans} {
		// after returns a frame holding the pre-park body followed by tail.
		after := func(tail ...byte) []byte {
			return buildFrame(append(preParkPollBody(55, spans), tail...))
		}
		word := appendI64(nil, 20e6)
		for _, cut := range []int{1, 4, 7} {
			out = append(out, namedFrame{"park word cut short", after(word[:cut]...)})
		}
		out = append(out,
			namedFrame{"garbage after the park word", after(append(word, 0xAB)...)},
			namedFrame{"two park words", after(append(word, word...)...)},
			namedFrame{"explicit zero park word", after(appendI64(nil, 0)...)},
		)
	}
	return out
}

func TestMalformedParkWordRejected(t *testing.T) {
	for _, tc := range malformedParkFrames() {
		if m, _, err := DecodeFrame(tc.frame); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("%s (%x): decoded %#v, err %v; want ErrCorruptFrame", tc.name, tc.frame, m, err)
		}
	}
}

// TestGobParkCompat: gob carries ParkNS as a plain field — it round-trips,
// a pre-park master's request reads as non-parking, and a pre-park head
// ignores the field it never declared.
func TestGobParkCompat(t *testing.T) {
	in := PollRequest{Site: 2, N: 8, NowNS: 99, Spans: parkSpans, ParkNS: 20e6}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(envelope{M: in}); err != nil {
		t.Fatal(err)
	}
	var out envelope
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil || !reflect.DeepEqual(out.M, Message(in)) {
		t.Errorf("gob round trip: got %#v, %v; want %#v", out.M, err, in)
	}

	// Old → new.
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(oldPollRequest{Site: 2, N: 8}); err != nil {
		t.Fatal(err)
	}
	var fromOld PollRequest
	if err := gob.NewDecoder(&buf).Decode(&fromOld); err != nil || fromOld.ParkNS != 0 || fromOld.N != 8 {
		t.Errorf("old→new PollRequest = %+v, %v", fromOld, err)
	}
	// New → old.
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	var old oldPollRequest
	if err := gob.NewDecoder(&buf).Decode(&old); err != nil || old.Site != 2 || old.N != 8 {
		t.Errorf("new→old PollRequest = %+v, %v", old, err)
	}
}

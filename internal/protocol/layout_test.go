package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/chunk"
	"repro/internal/jobs"
)

// wire hand-assembles a frame body field by field with encoding/binary, so
// the layouts below do not share code with the encoder they pin.
type wire []byte

func (w wire) u8(v byte) wire      { return append(w, v) }
func (w wire) u32(v uint32) wire   { return binary.LittleEndian.AppendUint32(w, v) }
func (w wire) u64(v uint64) wire   { return binary.LittleEndian.AppendUint64(w, v) }
func (w wire) n(v int) wire        { return w.u64(uint64(int64(v))) }
func (w wire) str(s string) wire   { return append(w.u32(uint32(len(s))), s...) }
func (w wire) raw(p string) wire   { return append(w, p...) }
func (w wire) tc(a, b uint64) wire { return w.u64(a).u64(b) }

// job is one jobs.Job: ID u64 | Site u32 | File u32 | Seq u32 | Offset u64 |
// Size u64 | Units u32.
func (w wire) job(id, site, file, seq int, off, size int64, units int) wire {
	return w.n(id).u32(uint32(site)).u32(uint32(file)).u32(uint32(seq)).
		u64(uint64(off)).u64(uint64(size)).u32(uint32(units))
}

func (w wire) frame() []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(w))), w...)
}

var layoutJob = jobs.Job{ID: 9, Site: 1, Ref: chunk.Ref{File: 2, Seq: 3, Offset: 4096, Size: 512, Units: 16}}

type layoutCase struct {
	name string
	msg  Message
	body wire
	tail int // bytes of bulk payload ending the frame (not a fixed field)
}

// fixedLayouts is one hand-built frame per message type, plus the zero
// trace/policy/park variant wherever a message carries one: every field is
// on the wire whatever its value.
func fixedLayouts() []layoutCase {
	var w wire
	span := WireSpan{Trace: TraceContext{1, 2}, Name: "job 9", Cat: "job", TID: 1, Query: 4, Job: 9, Start: 10, Dur: 20}
	policy := ElasticPolicy{Deadline: 90e9, Budget: 0.25, MinWorkers: 1, MaxWorkers: 6}
	return []layoutCase{
		{"Hello", Hello{Proto: ProtoMulti, Site: 3, Cluster: "cloud", Cores: 16, Trace: TraceContext{7, 9}},
			w.u8(1).n(ProtoMulti).n(3).str("cloud").n(16).tc(7, 9), 0},
		{"Hello zero trace", Hello{Proto: ProtoMulti, Cores: 1},
			w.u8(1).n(ProtoMulti).n(0).str("").n(1).tc(0, 0), 0},
		{"JobSpec", JobSpec{App: "knn", Params: []byte("p"), UnitSize: 32, Index: []byte("ix"),
			Checkpoint: []byte("ck"), Query: 4, Trace: TraceContext{5, 0}, Policy: policy},
			w.u8(2).str("knn").str("p").n(32).str("ix").str("ck").n(4).tc(5, 0).
				n(90e9).u64(math.Float64bits(0.25)).n(1).n(6), 0},
		{"JobSpec zero trace and policy", JobSpec{App: "knn"},
			w.u8(2).str("knn").str("").n(0).str("").str("").n(0).tc(0, 0).n(0).u64(0).n(0).n(0), 0},
		{"Heartbeat", Heartbeat{Site: 7}, w.u8(7).n(7), 0},
		{"CheckpointSave", CheckpointSave{Site: 1, Seq: 2, Query: 3, Trace: TraceContext{4, 5}, Data: []byte("ck")},
			w.u8(8).n(1).n(2).n(3).tc(4, 5).raw("ck"), 2},
		{"CheckpointSave zero trace", CheckpointSave{Site: 1, Seq: 2, Query: 3, Data: []byte("ck")},
			w.u8(8).n(1).n(2).n(3).tc(0, 0).raw("ck"), 2},
		{"CheckpointAck", CheckpointAck{Code: CodeStale, Err: "stale"},
			w.u8(9).str("stale").u32(CodeStale), 0},
		{"ReductionResult", ReductionResult{Site: 1, Query: 2, Object: []byte("obj"), Processing: 3, Retrieval: 4,
			Sync: 5, LocalJobs: 6, StolenJobs: 7, Trace: TraceContext{8, 9}},
			w.u8(10).n(1).n(2).n(3).n(4).n(5).n(6).n(7).tc(8, 9).raw("obj"), 3},
		{"ReductionResult zero trace", ReductionResult{Site: 1, Object: []byte("obj")},
			w.u8(10).n(1).n(0).n(0).n(0).n(0).n(0).n(0).tc(0, 0).raw("obj"), 3},
		{"ErrorReply", ErrorReply{Err: "old", Code: CodeVersionMismatch},
			w.u8(12).str("old").u32(CodeVersionMismatch), 0},
		{"PutReq", PutReq{Key: "k", Data: []byte("v")}, w.u8(13).str("k").raw("v"), 1},
		{"PutResp", PutResp{Err: "full", Code: CodeTransient}, w.u8(14).str("full").u32(CodeTransient), 0},
		{"GetReq", GetReq{Key: "k", Off: 8, Len: -1}, w.u8(15).str("k").n(8).n(-1), 0},
		{"GetResp", GetResp{Data: []byte("data"), Code: CodeOK}, w.u8(16).str("").u32(0).raw("data"), 4},
		{"StatReq", StatReq{Key: "k"}, w.u8(17).str("k"), 0},
		{"StatResp", StatResp{Size: 1 << 40, Err: "", Code: 0}, w.u8(18).n(1 << 40).str("").u32(0), 0},
		{"ListReq", ListReq{Prefix: "p"}, w.u8(19).str("p"), 0},
		{"ListResp", ListResp{Keys: []string{"a", "bb"}}, w.u8(20).u32(2).str("a").str("bb"), 0},
		{"SiteSpec", SiteSpec{HeartbeatEvery: 25e7, Trace: TraceContext{2, 1}},
			w.u8(21).n(25e7).tc(2, 1), 0},
		{"SiteSpec zero trace", SiteSpec{}, w.u8(21).n(0).tc(0, 0), 0},
		{"PollRequest", PollRequest{Site: 2, N: 8, Bytes: 1 << 20, NowNS: 77, Spans: []WireSpan{span}, ParkNS: 20e6},
			w.u8(22).n(2).n(8).n(1<<20).n(77).u32(1).
				tc(1, 2).str("job 9").str("job").u32(1).u32(4).n(9).n(10).n(20).
				n(20e6).u32(0), 0},
		{"PollRequest zero clock, spans and park", PollRequest{Site: 2, N: 8},
			w.u8(22).n(2).n(8).n(0).n(0).u32(0).n(0).u32(0), 0},
		{"PollRequest byte floor only", PollRequest{Site: 2, Bytes: 4 << 20},
			w.u8(22).n(2).n(0).n(4 << 20).n(0).u32(0).n(0).u32(0), 0},
		{"PollRequest negative ask", PollRequest{Site: 2, N: -1, Bytes: -1},
			w.u8(22).n(2).n(-1).n(-1).n(0).u32(0).n(0).u32(0), 0},
		{"PollRequest commit poll", PollRequest{Site: 1, Commits: []JobsDone{
			{Site: 1, Query: 4, Jobs: []jobs.Job{layoutJob}, Trace: TraceContext{5, 6}}}},
			w.u8(22).n(1).n(0).n(0).n(0).u32(0).n(0).u32(1).
				n(1).n(4).u32(1).job(9, 1, 2, 3, 4096, 512, 16).tc(5, 6), 0},
		{"PollRequest commit poll zero trace", PollRequest{Site: 1, Commits: []JobsDone{{Site: 1}}},
			w.u8(22).n(1).n(0).n(0).n(0).u32(0).n(0).u32(1).n(1).n(0).u32(0).tc(0, 0), 0},
		{"PollRequest with commits", PollRequest{Site: 1, N: 4, ParkNS: 20e6, Commits: []JobsDone{
			{Site: 1, Query: 4, Jobs: []jobs.Job{layoutJob}, Trace: TraceContext{5, 6}}, {Site: 1, Query: 7}}},
			w.u8(22).n(1).n(4).n(0).n(0).u32(0).n(20e6).u32(2).
				n(1).n(4).u32(1).job(9, 1, 2, 3, 4096, 512, 16).tc(5, 6).
				n(1).n(7).u32(0).tc(0, 0), 0},
		{"PollReply", PollReply{Queries: []QueryJobs{{Query: 4, Jobs: []jobs.Job{layoutJob}, Trace: TraceContext{4, 11}}},
			Done: []int{1}, Dropped: []int{2}, Shutdown: true},
			w.u8(23).u8(1).u32(1).n(4).tc(4, 11).u32(1).job(9, 1, 2, 3, 4096, 512, 16).
				u32(1).n(1).u32(1).n(2).u32(0), 0},
		{"PollReply zero trace", PollReply{Queries: []QueryJobs{{Query: 4}}, Shutdown: true, Drain: true},
			w.u8(23).u8(3).u32(1).n(4).tc(0, 0).u32(0).u32(0).u32(0).u32(0), 0},
		{"PollReply with acks", PollReply{Done: []int{4}, Acks: []JobsDoneAck{
			{Dup: []int{9}}, {Err: "gone", Code: CodeUnknownQuery}}},
			w.u8(23).u8(0).u32(0).u32(1).n(4).u32(0).u32(2).
				str("").u32(0).u32(1).n(9).
				str("gone").u32(CodeUnknownQuery).u32(0), 0},
		{"PollReply acks only", PollReply{Acks: []JobsDoneAck{{Dup: []int{4}, Err: "dup", Code: CodeFenced}}},
			w.u8(23).u8(0).u32(0).u32(0).u32(0).u32(1).str("dup").u32(CodeFenced).u32(1).n(4), 0},
		{"QuerySpecRequest", QuerySpecRequest{Site: 2, Query: 6}, w.u8(24).n(2).n(6), 0},
		{"ResultAck", ResultAck{Err: "gone", Code: CodeUnknownQuery},
			w.u8(25).str("gone").u32(CodeUnknownQuery), 0},
	}
}

func TestFrameLayoutsFixed(t *testing.T) {
	for _, tc := range fixedLayouts() {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.body.frame()
			got, err := AppendFrame(nil, tc.msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("AppendFrame:\n got %x\nwant %x", got, want)
			}
			dec, n, err := DecodeFrame(want)
			if err != nil || n != len(want) {
				t.Fatalf("DecodeFrame: n=%d err=%v", n, err)
			}
			if !reflect.DeepEqual(dec, tc.msg) {
				t.Fatalf("DecodeFrame:\n got %#v\nwant %#v", dec, tc.msg)
			}
			// Every strict prefix of the fixed fields (tag kept) is rejected.
			for cut := 1; cut < len(tc.body)-tc.tail; cut++ {
				m, _, err := DecodeFrame(tc.body[:cut].frame())
				if !errors.Is(err, ErrTruncatedFrame) && !errors.Is(err, ErrCorruptFrame) {
					t.Fatalf("body cut to %d of %d bytes: decoded %#v, err %v", cut, len(tc.body), m, err)
				}
			}
			// A spare byte after the last fixed field is rejected; after a bulk
			// payload it is simply part of the payload.
			if tc.tail == 0 {
				long := append(append(wire(nil), tc.body...), 0xAA)
				if m, _, err := DecodeFrame(long.frame()); !errors.Is(err, ErrCorruptFrame) {
					t.Fatalf("trailing byte: decoded %#v, err %v; want ErrCorruptFrame", m, err)
				}
			}
		})
	}
}

// traceWord is a trace context whose 16 wire bytes occur nowhere else in
// the frames below, so they can be located by value.
var traceWord = TraceContext{TraceID: 0x1111111111111111, SpanID: 0x2222222222222222}

// zeroedAt returns frame with the first occurrence of field replaced by as
// many zero bytes.
func zeroedAt(t *testing.T, frame, field []byte) []byte {
	t.Helper()
	i := bytes.Index(frame, field)
	if i < 0 || bytes.Index(frame[i+1:], field) >= 0 {
		t.Fatalf("field %x is not in frame %x exactly once", field, frame)
	}
	out := append([]byte(nil), frame...)
	clear(out[i : i+len(field)])
	return out
}

func mustFrame(t *testing.T, m Message) []byte {
	t.Helper()
	b, err := AppendFrame(nil, m)
	if err != nil {
		t.Fatalf("%T: %v", m, err)
	}
	return b
}

// TestZeroTraceEncodesBitIdentical: a zero trace is 16 zero bytes in the
// trace's fixed place — the frame is byte-identical to the traced frame
// with those bytes cleared — and decodes to a zero trace.
func TestZeroTraceEncodesBitIdentical(t *testing.T) {
	tw := wire(nil).tc(traceWord.TraceID, traceWord.SpanID)
	pairs := []struct{ traced, zero Message }{
		{Hello{Proto: ProtoMulti, Site: 3, Cluster: "cloud", Cores: 16, Trace: traceWord},
			Hello{Proto: ProtoMulti, Site: 3, Cluster: "cloud", Cores: 16}},
		{JobSpec{App: "knn", Query: 2, Trace: traceWord, Policy: ElasticPolicy{Deadline: 5e9}},
			JobSpec{App: "knn", Query: 2, Policy: ElasticPolicy{Deadline: 5e9}}},
		{PollRequest{Site: 1, Commits: []JobsDone{{Site: 1, Query: 3, Jobs: []jobs.Job{layoutJob}, Trace: traceWord}}},
			PollRequest{Site: 1, Commits: []JobsDone{{Site: 1, Query: 3, Jobs: []jobs.Job{layoutJob}}}}},
		{SiteSpec{HeartbeatEvery: 25e7, Trace: traceWord}, SiteSpec{HeartbeatEvery: 25e7}},
		{CheckpointSave{Site: 1, Seq: 42, Trace: traceWord, Data: []byte("ck")},
			CheckpointSave{Site: 1, Seq: 42, Data: []byte("ck")}},
		{ReductionResult{Site: 2, Query: 4, Object: []byte{9, 8, 7}, Processing: 123, Trace: traceWord},
			ReductionResult{Site: 2, Query: 4, Object: []byte{9, 8, 7}, Processing: 123}},
		{PollReply{Queries: []QueryJobs{{Query: 1, Jobs: []jobs.Job{layoutJob}, Trace: traceWord}}, Drain: true},
			PollReply{Queries: []QueryJobs{{Query: 1, Jobs: []jobs.Job{layoutJob}}}, Drain: true}},
	}
	for _, p := range pairs {
		got := mustFrame(t, p.zero)
		if want := zeroedAt(t, mustFrame(t, p.traced), tw); !bytes.Equal(got, want) {
			t.Errorf("%T: zero-trace frame:\n got %x\nwant %x", p.zero, got, want)
		}
		dec, _, err := DecodeFrame(got)
		if err != nil || !reflect.DeepEqual(dec, p.zero) {
			t.Errorf("%T: decode = %#v, %v; want %#v", p.zero, dec, err, p.zero)
		}
	}
}

// TestZeroPolicyEncodesBitIdentical: a JobSpec without a policy carries the
// 32-byte policy block as zeros in its fixed place, untraced and traced
// alike, and decodes to a zero policy.
func TestZeroPolicyEncodesBitIdentical(t *testing.T) {
	policy := ElasticPolicy{Deadline: 0x3333333333333333, Budget: 0.125, MinWorkers: 0x4444, MaxWorkers: 0x5555}
	pw := wire(nil).n(int(policy.Deadline)).u64(math.Float64bits(policy.Budget)).
		n(policy.MinWorkers).n(policy.MaxWorkers)
	for _, trace := range []TraceContext{{}, traceWord} {
		zero := JobSpec{App: "knn", Params: []byte{1, 2}, UnitSize: 4096, Query: 2, Trace: trace}
		withPolicy := zero
		withPolicy.Policy = policy
		got := mustFrame(t, zero)
		if want := zeroedAt(t, mustFrame(t, withPolicy), pw); !bytes.Equal(got, want) {
			t.Errorf("trace %v: zero-policy frame:\n got %x\nwant %x", trace, got, want)
		}
		dec, _, err := DecodeFrame(got)
		if err != nil || !reflect.DeepEqual(dec, Message(zero)) {
			t.Errorf("trace %v: decode = %#v, %v; want %#v", trace, dec, err, zero)
		}
	}
}

// TestPolicyForcesTraceBlock: a policy on an untraced JobSpec still sits
// behind the trace block, 16 zero bytes, and the round trip recovers the
// message exactly — including the float budget bits.
func TestPolicyForcesTraceBlock(t *testing.T) {
	in := JobSpec{App: "knn", Query: 1,
		Policy: ElasticPolicy{Deadline: 120e9, Budget: 0.1, MinWorkers: 1, MaxWorkers: 8}}
	frame := mustFrame(t, in)
	bare := mustFrame(t, JobSpec{App: "knn", Query: 1})
	if len(frame) != len(bare) {
		t.Errorf("policy frame is %d bytes, policy-free frame %d", len(frame), len(bare))
	}
	const policyWire = 32
	pre := len(frame) - policyWire - traceWire
	if !bytes.Equal(frame[pre:pre+traceWire], make([]byte, traceWire)) {
		t.Errorf("bytes ahead of the policy block = %x, want a zero trace", frame[pre:pre+traceWire])
	}
	got, _, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	js, ok := got.(JobSpec)
	if !ok || !reflect.DeepEqual(js, in) {
		t.Fatalf("round trip: got %#v want %#v", got, in)
	}
	if math.Float64bits(js.Policy.Budget) != math.Float64bits(in.Policy.Budget) {
		t.Errorf("budget bits changed: %x vs %x",
			math.Float64bits(js.Policy.Budget), math.Float64bits(in.Policy.Budget))
	}
}

// parkSpans is the span block the PollRequest frames below carry.
var parkSpans = []WireSpan{
	{Trace: TraceContext{TraceID: 1, SpanID: 2}, Name: "job 3", Cat: "job", TID: 1, Query: 1, Job: 3, Start: 10, Dur: 20},
}

// pollBody hand-builds the PollRequest body for (site 2, n 9, bytes 4096)
// up to and including its span block: everything but the park word and the
// commit block that end it.
func pollBody(now int64, spans []WireSpan) wire {
	w := wire(nil).u8(tagPollRequest).n(2).n(9).n(4096).u64(uint64(now)).u32(uint32(len(spans)))
	for _, s := range spans {
		w = w.tc(s.Trace.TraceID, s.Trace.SpanID).str(s.Name).str(s.Cat).
			u32(uint32(s.TID)).u32(uint32(s.Query)).n(s.Job).u64(uint64(s.Start)).u64(uint64(s.Dur))
	}
	return w
}

// parkCommits is the commit block some PollRequest frames below carry, and
// parkCommitBlock its hand-built encoding.
var (
	parkCommits     = []JobsDone{{Site: 2, Query: 1, Jobs: []jobs.Job{layoutJob}, Trace: TraceContext{3, 4}}}
	parkCommitBlock = wire(nil).u32(1).n(2).n(1).u32(1).job(9, 1, 2, 3, 4096, 512, 16).tc(3, 4)
	noCommitBlock   = wire(nil).u32(0)
)

var pollCases = []struct {
	name string
	msg  PollRequest
}{
	{"bare", PollRequest{Site: 2, N: 9, Bytes: 4096}},
	{"clock sample", PollRequest{Site: 2, N: 9, Bytes: 4096, NowNS: 55}},
	{"spans", PollRequest{Site: 2, N: 9, Bytes: 4096, NowNS: 55, Spans: parkSpans}},
	{"commits", PollRequest{Site: 2, N: 9, Bytes: 4096, NowNS: 55, Commits: parkCommits}},
	{"spans and commits", PollRequest{Site: 2, N: 9, Bytes: 4096, NowNS: 55, Spans: parkSpans, Commits: parkCommits}},
}

// commitBlock is the hand-built commit block that ends m's frame.
func commitBlock(m PollRequest) wire {
	if len(m.Commits) > 0 {
		return parkCommitBlock
	}
	return noCommitBlock
}

// TestZeroParkEncodesBitIdentical: a request that does not park carries an
// 8-byte zero park word between its span block and its commit block, with
// and without spans or commits, and decodes with ParkNS 0.
func TestZeroParkEncodesBitIdentical(t *testing.T) {
	for _, tc := range pollCases {
		want := append(pollBody(tc.msg.NowNS, tc.msg.Spans).n(0), commitBlock(tc.msg)...).frame()
		if got := mustFrame(t, tc.msg); !bytes.Equal(got, want) {
			t.Errorf("%s: zero-park frame:\n got %x\nwant %x", tc.name, got, want)
		}
		dec, n, err := DecodeFrame(want)
		if err != nil || n != len(want) || !reflect.DeepEqual(dec, Message(tc.msg)) {
			t.Errorf("%s: decode = %#v, n=%d, %v; want %#v", tc.name, dec, n, err, tc.msg)
		}
	}
}

// TestParkWordTrailsSpanBlock: a parking request is the non-parking frame
// with the 8 bytes right after the span block set to the park word; the
// commit block follows it, unchanged, and ends the frame.
func TestParkWordTrailsSpanBlock(t *testing.T) {
	for _, tc := range pollCases {
		in := tc.msg
		in.ParkNS = 20e6
		got := mustFrame(t, in)
		block := commitBlock(in)
		if want := append(pollBody(in.NowNS, in.Spans).n(20e6), block...).frame(); !bytes.Equal(got, want) {
			t.Errorf("%s: parking frame:\n got %x\nwant %x", tc.name, got, want)
		}
		at := len(got) - len(block) - 8 // where the park word starts
		still := mustFrame(t, tc.msg)
		if len(still) != len(got) || !bytes.Equal(got[:at], still[:at]) || !bytes.Equal(got[at+8:], still[at+8:]) {
			t.Errorf("%s: parking changed bytes other than the park word", tc.name)
		}
		if !bytes.Equal(got[at+8:], block) {
			t.Errorf("%s: frame ends in %x after the park word, want the commit block %x", tc.name, got[at+8:], block)
		}
		dec, _, err := DecodeFrame(got)
		if err != nil || !reflect.DeepEqual(dec, Message(in)) {
			t.Errorf("%s: round trip: got %#v, %v; want %#v", tc.name, dec, err, in)
		}
	}
}

// TestMalformedParkWordRejected: the bytes after a span block must be
// exactly one park word and then one commit block. A short park word or a
// missing or cut commit block is truncated; anything more is corrupt, and
// so is a second park word, which reads as an impossible commit count.
func TestMalformedParkWordRejected(t *testing.T) {
	word := wire(nil).n(20e6)
	cat := func(parts ...wire) wire {
		var w wire
		for _, p := range parts {
			w = append(w, p...)
		}
		return w
	}
	for _, spans := range [][]WireSpan{nil, parkSpans} {
		body := pollBody(55, spans)
		after := func(tail wire) []byte { return cat(body, tail).frame() }
		for _, cut := range []int{0, 1, 4, 7} {
			if m, _, err := DecodeFrame(after(word[:cut])); !errors.Is(err, ErrTruncatedFrame) {
				t.Errorf("%d spans, park word cut to %d bytes: decoded %#v, err %v; want ErrTruncatedFrame",
					len(spans), cut, m, err)
			}
		}
		for _, block := range []wire{noCommitBlock, parkCommitBlock} {
			for _, cut := range []int{0, 3, len(block) - 1} {
				if m, _, err := DecodeFrame(after(cat(word, block[:cut]))); !errors.Is(err, ErrTruncatedFrame) {
					t.Errorf("%d spans, %d-byte commit block cut to %d bytes: decoded %#v, err %v; want ErrTruncatedFrame",
						len(spans), len(block), cut, m, err)
				}
			}
			for name, tail := range map[string]wire{
				"garbage after the commit block": cat(word, block, wire{0xAB}),
				"two park words":                 cat(word, word, block),
				"two commit blocks":              cat(word, block, block),
			} {
				if m, _, err := DecodeFrame(after(tail)); !errors.Is(err, ErrCorruptFrame) {
					t.Errorf("%d spans, %d-byte commit block, %s: decoded %#v, err %v; want ErrCorruptFrame",
						len(spans), len(block), name, m, err)
				}
			}
		}
	}
}

// refused asserts that every frame fails to decode as truncated or corrupt.
func refused(t *testing.T, frames map[string][]byte) {
	t.Helper()
	for name, frame := range frames {
		if m, _, err := DecodeFrame(frame); !errors.Is(err, ErrTruncatedFrame) && !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("%s (%x): decoded %#v, err %v; want ErrTruncatedFrame or ErrCorruptFrame", name, frame, m, err)
		}
	}
}

// TestPreTraceFramesRefused: frames in the layouts of the earlier protocol,
// which left the trace fields off when they were zero, are refused rather
// than read with a zero trace: the trace is a fixed field.
func TestPreTraceFramesRefused(t *testing.T) {
	var w wire
	const oldProto, oldCodec = 1, 1
	refused(t, map[string][]byte{
		"Hello": w.u8(tagHello).n(3).str("cloud").n(16).n(oldCodec).n(oldProto).frame(),
		"commit poll": w.u8(tagPollRequest).n(1).n(0).n(0).n(0).u32(0).n(0).u32(1).
			n(1).n(3).u32(1).job(9, 1, 2, 3, 4096, 512, 16).frame(),
		"SiteSpec":  w.u8(tagSiteSpec).n(25e7).n(oldCodec).frame(),
		"bare Poll": w.u8(tagPollRequest).n(2).n(9).frame(),
		"PollReply": w.u8(tagPollReply).u8(1).u32(1).n(1).u32(1).job(9, 1, 2, 3, 4096, 512, 16).
			u32(2).n(3).n(4).u32(0).frame(),
		"CheckpointSave":  w.u8(tagCheckpointSave).n(1).n(42).n(0).raw("ck").frame(),
		"ReductionResult": w.u8(tagReductionResult).n(2).n(4).n(123).n(456).n(789).n(10).n(3).raw("\x09\x08\x07").frame(),
	})
}

// TestPrePolicyFramesRefused: JobSpec frames in the earlier layout, with
// GroupSize and Codec fields and no policy block, are refused rather than
// read with a zero policy, traced or not.
func TestPrePolicyFramesRefused(t *testing.T) {
	const oldCodec = 1
	spec := wire(nil).u8(tagJobSpec).str("knn").str("\x01\x02").n(4096).n(256 << 10).str("").
		n(8).str("").n(5e8).n(oldCodec).n(2)
	refused(t, map[string][]byte{
		"JobSpec":       spec.frame(),
		"JobSpec+trace": append(append(wire(nil), spec...), wire(nil).tc(3, 0)...).frame(),
	})
}

// TestProto2JobSpecRefused: a JobSpec in the version-2 layout, which carried
// the unit-group budget after UnitSize and a heartbeat period after
// Checkpoint, is two words longer than the current layout and is refused
// rather than read with shifted fields.
func TestProto2JobSpecRefused(t *testing.T) {
	refused(t, map[string][]byte{
		"JobSpec v2": wire(nil).u8(tagJobSpec).str("knn").str("p").n(32).n(1<<18).str("ix").str("ck").
			n(5e8).n(4).tc(5, 0).n(90e9).u64(math.Float64bits(0.25)).n(1).n(6).frame(),
	})
}

// TestProto7JobSpecRefused: a JobSpec in the version-7 layout, which
// carried the unit-group budget after UnitSize, is one word longer than the
// current layout and is refused rather than read with shifted fields.
func TestProto7JobSpecRefused(t *testing.T) {
	refused(t, map[string][]byte{
		"JobSpec v7": wire(nil).u8(tagJobSpec).str("knn").str("p").n(32).n(1<<18).str("ix").str("ck").
			n(4).tc(5, 0).n(90e9).u64(math.Float64bits(0.25)).n(1).n(6).frame(),
		"JobSpec v7 zero trace and policy": wire(nil).u8(tagJobSpec).str("knn").str("").n(0).n(0).str("").str("").
			n(0).tc(0, 0).n(0).u64(0).n(0).n(0).frame(),
	})
}

// TestProto5PollRefused: a PollRequest in the version-5 layout, which had
// no Bytes word after N, is eight bytes short of the current layout and is
// refused rather than read with shifted fields.
func TestProto5PollRefused(t *testing.T) {
	refused(t, map[string][]byte{
		"bare v5 Poll":   wire(nil).u8(tagPollRequest).n(2).n(9).n(0).u32(0).n(0).u32(0).frame(),
		"parked v5 Poll": wire(nil).u8(tagPollRequest).n(2).n(9).n(55).u32(0).n(20e6).u32(0).frame(),
	})
}

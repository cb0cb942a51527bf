package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"repro/internal/chunk"
	"repro/internal/jobs"
)

func sampleJobs(n int) []jobs.Job {
	js := make([]jobs.Job, n)
	for i := range js {
		js[i] = jobs.Job{
			ID:   i * 7,
			Site: i % 3,
			Ref: chunk.Ref{
				File:   i % 5,
				Seq:    i,
				Offset: int64(i) * 12800,
				Size:   12800,
				Units:  128,
			},
		}
	}
	return js
}

// every message type with non-trivial field values, including negatives and
// empty/nil payloads.
func sampleMessages() []Message {
	return []Message{
		Hello{Site: 3, Cluster: "cloud", Cores: 16, Proto: ProtoMulti},
		Hello{},
		JobSpec{App: "knn", Params: []byte{1, 2, 3}, UnitSize: 4096,
			Index:      bytes.Repeat([]byte{0xAB}, 100),
			Checkpoint: []byte("ckpt")},
		JobSpec{App: "kmeans"},
		// A commit poll (it asks for nothing) and acks-only replies.
		PollRequest{Site: 2, Commits: []JobsDone{{Site: 2, Jobs: sampleJobs(3)}}},
		PollReply{Acks: []JobsDoneAck{{Dup: []int{4, 9, 11}, Err: "partial"}}},
		PollReply{Acks: []JobsDoneAck{{}}},
		PollReply{Acks: []JobsDoneAck{{Err: "fenced", Code: CodeFenced}}},
		Heartbeat{Site: 7},
		CheckpointSave{Site: 1, Seq: 42, Data: []byte("checkpoint-bytes")},
		CheckpointSave{Site: 0, Seq: 1},
		CheckpointAck{Err: "stale seq"},
		CheckpointAck{},
		CheckpointAck{Err: "stale seq", Code: CodeStale},
		ReductionResult{Site: 2, Object: []byte{9, 8, 7}, Processing: 123, Retrieval: 456,
			Sync: 789, LocalJobs: 10, StolenJobs: 3},
		ErrorReply{Err: "boom"},
		PutReq{Key: "points0000.dat", Data: bytes.Repeat([]byte{1}, 1000)},
		PutResp{Err: "disk full", Code: CodeTransient},
		PutResp{},
		GetReq{Key: "k", Off: 12800, Len: -1},
		GetResp{Data: bytes.Repeat([]byte{2}, 64), Code: CodeOK},
		GetResp{Err: "no such key", Code: CodeNotFound},
		StatReq{Key: "x"},
		StatResp{Size: 1 << 40, Err: "", Code: 0},
		ListReq{Prefix: "points"},
		ListResp{Keys: []string{"a", "bb", "ccc"}},
		ListResp{},
		Hello{Site: 2, Cluster: "shared", Cores: 8, Proto: -1},
		JobSpec{App: "histogram", Query: 7},
		PollRequest{Site: 1, Commits: []JobsDone{{Site: 1, Query: 3, Jobs: []jobs.Job{{ID: 12, Site: 1}}}}},
		CheckpointSave{Site: 0, Seq: 2, Query: 5, Data: []byte("q5")},
		ReductionResult{Site: 1, Query: 4, Object: []byte{1}, Processing: 2, Retrieval: 3, Sync: 4, LocalJobs: 5, StolenJobs: 6},
		ErrorReply{Err: "fenced", Code: CodeFenced},
		SiteSpec{HeartbeatEvery: 25e7},
		SiteSpec{},
		PollRequest{Site: 3, N: 9},
		PollRequest{Site: 3, N: 4, Bytes: 1 << 20},                 // a byte floor above N jobs
		PollRequest{Site: 3, N: -2, Bytes: -4096},                  // a negative ask: the head refuses it, the codec carries it
		PollRequest{Site: 3, N: 1 << 40, Bytes: 1 << 62, NowNS: 1}, // extreme asks round-trip
		PollReply{
			Queries: []QueryJobs{
				{Query: 1, Jobs: []jobs.Job{{ID: 1, Site: 0}, {ID: 2, Site: 1}}},
				{Query: 2},
			},
			Done:    []int{3, 4},
			Dropped: []int{5},
		},
		PollReply{Shutdown: true},
		PollReply{Done: []int{2}, Drain: true},
		PollReply{},
		QuerySpecRequest{Site: 2, Query: 6},
		ResultAck{Err: "unknown query", Code: CodeUnknownQuery},
		ResultAck{},
		// Traced messages, span piggybacking, policies and parking polls.
		Hello{Site: 4, Cluster: "edge", Cores: 2, Proto: ProtoMulti, Trace: TraceContext{SpanID: 5}},
		JobSpec{App: "knn", Query: 2, Trace: TraceContext{TraceID: 3}},
		PollRequest{Site: 1, Commits: []JobsDone{{Site: 1, Query: 3, Jobs: sampleJobs(2), Trace: TraceContext{TraceID: 4, SpanID: 9}}}},
		CheckpointSave{Site: 1, Seq: 7, Query: 5, Data: []byte("q5-traced"), Trace: TraceContext{TraceID: 6, SpanID: 2}},
		ReductionResult{Site: 0, Query: 1, Object: []byte{1, 2}, Processing: 3,
			Trace: TraceContext{TraceID: 2, SpanID: 8}},
		SiteSpec{HeartbeatEvery: 1e9, Trace: TraceContext{TraceID: 4, SpanID: 1}},
		PollRequest{Site: 2, N: 8, NowNS: 123456789, Spans: []WireSpan{
			{Trace: TraceContext{TraceID: 1, SpanID: 2}, Name: "job 3", Cat: "job", TID: 1, Job: 3, Start: 10, Dur: 20},
			{Trace: TraceContext{TraceID: 2, SpanID: 3}, Name: "retrieve", Cat: "retrieval", TID: 2, Query: 1, Job: 4, Start: 30, Dur: 40},
		}},
		PollRequest{Site: 0, N: 1, NowNS: 42}, // clock sample, no spans
		PollReply{Queries: []QueryJobs{
			{Query: 1, Jobs: sampleJobs(2), Trace: TraceContext{TraceID: 2, SpanID: 11}},
			{Query: 2}, // untraced grant alongside a traced one
		}},
		JobSpec{App: "knn", Query: 3,
			Policy: ElasticPolicy{Budget: 0.25, MaxWorkers: 16}},
		JobSpec{App: "kmeans", Query: 4,
			Trace:  TraceContext{TraceID: 5},
			Policy: ElasticPolicy{Deadline: 240e9, Budget: 0.12, MinWorkers: 2, MaxWorkers: 6}},
		PollRequest{Site: 1, N: 4, ParkNS: 20e6},
		PollRequest{Site: 1, N: 4, NowNS: 77, ParkNS: 20e6},
		PollRequest{Site: 2, N: 8, NowNS: 123456789, ParkNS: 20e6, Spans: []WireSpan{
			{Trace: TraceContext{TraceID: 1, SpanID: 2}, Name: "job 3", Cat: "job", TID: 1, Job: 3, Start: 10, Dur: 20},
		}},
		PollRequest{Site: 3, N: 1, ParkNS: -1}, // meaningless to the head, still round-trips
		// Commits riding a poll, and the acks answering them.
		PollRequest{Site: 1, N: 4, ParkNS: 20e6, Commits: []JobsDone{
			{Site: 1, Query: 2, Jobs: sampleJobs(3), Trace: TraceContext{TraceID: 4, SpanID: 9}},
			{Site: 1, Query: 3, Jobs: []jobs.Job{{ID: 12, Site: 1}}},
		}},
		PollReply{Queries: []QueryJobs{{Query: 2, Jobs: sampleJobs(2)}}, Done: []int{3}, Acks: []JobsDoneAck{
			{Dup: []int{7}},
			{},
			{Err: "unknown query", Code: CodeUnknownQuery},
		}},
	}
}

// retiredFrames hand-builds well-formed frames of the eight retired message
// tags, in the layouts their encoders used to write. The tag numbers stay
// reserved, so each must decode to ErrUnknownType whatever its body says.
func retiredFrames() []struct {
	name  string
	frame []byte
} {
	frame := func(tag byte, body []byte) []byte {
		f := appendU32(nil, uint32(1+len(body)))
		return append(append(f, tag), body...)
	}
	return []struct {
		name  string
		frame []byte
	}{
		{"retired tag 3 (JobRequest)", frame(3, appendInt(appendInt(nil, 1), 32))},
		{"retired tag 4 (JobGrant)", frame(4, appendJobs([]byte{1}, sampleJobs(5)))},
		{"retired tag 4 (empty JobGrant)", frame(4, appendJobs([]byte{0}, nil))},
		{"retired tag 5 (JobsDone)",
			frame(5, appendTrace(appendJobs(appendInt(appendInt(nil, 1), 3), sampleJobs(2)), TraceContext{4, 9}))},
		{"retired tag 5 (empty JobsDone)", frame(5, appendTrace(appendJobs(make([]byte, 16), nil), TraceContext{}))},
		{"retired tag 6 (JobsDoneAck)", frame(6, appendInt(appendU32(appendU32(appendU32(nil, 0), 0), 1), 7))},
		{"retired tag 11 (Finished)", frame(11, bytes.Repeat([]byte{0xCD}, 50))},
		{"retired tag 11 (empty Finished)", frame(11, nil)},
		{"retired tag 26 (traced CheckpointSave)",
			frame(26, append(appendTrace(appendInt(appendInt(appendInt(nil, 1), 7), 5), TraceContext{6, 2}), "ckpt"...))},
		{"retired tag 27 (traced ReductionResult)",
			frame(27, append(appendTrace(make([]byte, 7*8), TraceContext{2, 8}), 1, 2))},
		{"retired tag 28 (ResultRequest)", frame(28, appendInt(appendInt(nil, 2), 6))},
		{"retired tag 28 (zero ResultRequest)", frame(28, make([]byte, 16))},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		frame, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatalf("AppendFrame(%T): %v", m, err)
		}
		got, n, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("DecodeFrame(%T): %v", m, err)
		}
		if n != len(frame) {
			t.Errorf("%T: consumed %d of %d bytes", m, n, len(frame))
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%T round trip:\n got %#v\nwant %#v", m, got, m)
		}
	}
}

// TestBinaryRoundTripConcatenated checks frames are self-delimiting on a
// stream.
func TestBinaryRoundTripConcatenated(t *testing.T) {
	msgs := sampleMessages()
	var stream []byte
	var err error
	for _, m := range msgs {
		if stream, err = AppendFrame(stream, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, n, err := DecodeFrame(stream)
		if err != nil {
			t.Fatalf("decoding %T from stream: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stream decode: got %#v want %#v", got, want)
		}
		stream = stream[n:]
	}
	if len(stream) != 0 {
		t.Fatalf("%d stream bytes left over", len(stream))
	}
}

func TestDecodeFrameMalformed(t *testing.T) {
	valid, err := AppendFrame(nil, PollReply{Acks: []JobsDoneAck{{Dup: []int{4, 9}}}})
	if err != nil {
		t.Fatal(err)
	}
	validPayload, err := AppendFrame(nil, GetResp{Data: []byte("hello world")})
	if err != nil {
		t.Fatal(err)
	}

	frameLen := func(n uint32) []byte {
		b := make([]byte, 4)
		binary.LittleEndian.PutUint32(b, n)
		return b
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty input", nil, ErrTruncatedFrame},
		{"short length word", []byte{1, 2}, ErrTruncatedFrame},
		{"zero-length frame", frameLen(0), ErrCorruptFrame},
		{"oversized length word", frameLen(MaxFrameBytes + 1), ErrFrameTooBig},
		{"huge length word", frameLen(0xFFFFFFFF), ErrFrameTooBig},
		{"length beyond input", append(frameLen(100), 1, 2, 3), ErrTruncatedFrame},
		{"unknown tag", append(frameLen(1), 0xEE), ErrUnknownType},
		{"zero tag", append(frameLen(1), 0x00), ErrUnknownType},
		{"truncated body", valid[:len(valid)-4], ErrTruncatedFrame},
		{"trailing garbage inside frame",
			func() []byte {
				f := append([]byte(nil), valid...)
				f = append(f, 0xAA, 0xBB)
				binary.LittleEndian.PutUint32(f, uint32(len(f)-4))
				return f
			}(), ErrCorruptFrame},
		{"job count exceeding frame",
			func() []byte {
				// A commit poll whose one commit, after site and query,
				// claims 1M jobs in a tiny frame: must be rejected before
				// allocating.
				body := appendInt(appendInt(appendInt(appendInt([]byte{byte(tagPollRequest)}, 0), 0), 0), 0)
				body = appendInt(appendU32(body, 0), 0) // no spans, no park
				body = appendU32(body, 1)               // one commit
				body = appendU32(appendInt(appendInt(body, 0), 0), 1<<20)
				return append(frameLen(uint32(len(body))), body...)
			}(), ErrCorruptFrame},
		{"string length exceeding frame",
			func() []byte {
				body := []byte{byte(tagErrorReply)}
				body = appendU32(body, 1<<30)
				return append(frameLen(uint32(len(body))), body...)
			}(), ErrCorruptFrame},
		{"dup count exceeding frame",
			func() []byte {
				body := []byte{byte(tagPollReply), 0}
				body = appendU32(appendU32(appendU32(body, 0), 0), 0) // no grants, Done or Dropped
				body = appendU32(body, 1)                             // one ack
				body = appendU32(body, 0)                             // empty Err
				body = appendU32(body, 0)                             // Code OK
				body = appendU32(body, 1<<28)                         // absurd dup count
				return append(frameLen(uint32(len(body))), body...)
			}(), ErrCorruptFrame},
		{"payload frame truncated mid-meta", validPayload[:6], ErrTruncatedFrame},
		{"poll reply flag bit beyond Shutdown and Drain",
			func() []byte {
				// An otherwise empty PollReply: flags, then four zero counts.
				body := appendU32(appendU32(appendU32(appendU32([]byte{byte(tagPollReply), 1 | 4}, 0), 0), 0), 0)
				return append(frameLen(uint32(len(body))), body...)
			}(), ErrCorruptFrame},
		{"ack count exceeding frame",
			func() []byte {
				// A PollReply with no grants or notices whose ack count claims
				// far more acks than the bytes left could hold.
				body := appendU32(appendU32(appendU32([]byte{byte(tagPollReply), 0}, 0), 0), 0)
				body = appendU32(body, 1<<20)
				body = appendU32(appendU32(appendU32(body, 0), 0), 0) // one empty ack
				return append(frameLen(uint32(len(body))), body...)
			}(), ErrCorruptFrame},
		{"commit count exceeding frame",
			func() []byte {
				// A bare PollRequest whose commit count claims 1M commits.
				body := appendInt(appendInt(appendInt(appendInt([]byte{byte(tagPollRequest)}, 0), 4), 0), 0)
				body = appendInt(appendU32(body, 0), 0) // no spans, no park
				body = appendU32(body, 1<<20)
				return append(frameLen(uint32(len(body))), body...)
			}(), ErrCorruptFrame},
	}
	for _, rf := range retiredFrames() {
		cases = append(cases, struct {
			name string
			data []byte
			want error
		}{rf.name, rf.frame, ErrUnknownType})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, _, err := DecodeFrame(tc.data)
			if err == nil {
				t.Fatalf("decoded %#v from malformed input", m)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got error %v, want %v", err, tc.want)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Allocation-regression tests: encoding hot messages into a reused buffer
// must not allocate; decoding must stay within a small constant.

func TestEncodeAllocs(t *testing.T) {
	grant := PollReply{Queries: []QueryJobs{{Query: 1, Jobs: sampleJobs(64)}}}
	commit := PollRequest{Site: 1, Commits: []JobsDone{{Site: 1, Jobs: sampleJobs(64)}}}
	chunkMsg := GetResp{Data: bytes.Repeat([]byte{3}, 64<<10)}
	buf := make([]byte, 0, 1<<20)
	cases := []struct {
		name string
		m    Message
	}{
		{"PollReply", grant},
		{"commit poll", commit},
		{"GetResp chunk", chunkMsg},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(100, func() {
				meta, _, err := AppendBinary(buf[:0], tc.m)
				if err != nil {
					t.Fatal(err)
				}
				if cap(meta) > cap(buf) {
					buf = meta
				}
			})
			if allocs > 0 {
				t.Errorf("encoding %s: %.1f allocs/op, want 0", tc.name, allocs)
			}
		})
	}
}

func TestDecodeAllocs(t *testing.T) {
	grant, err := AppendFrame(nil, PollReply{Queries: []QueryJobs{{Query: 1, Jobs: sampleJobs(64)}}})
	if err != nil {
		t.Fatal(err)
	}
	commit, err := AppendFrame(nil, PollRequest{Site: 1, Commits: []JobsDone{{Site: 1, Jobs: sampleJobs(64)}}})
	if err != nil {
		t.Fatal(err)
	}
	chunkFrame, err := AppendFrame(nil, GetResp{Data: bytes.Repeat([]byte{3}, 64<<10)})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64<<10)
	alloc := func(n int) []byte { return payload[:n] } // stand-in for bufpool.Get

	cases := []struct {
		name  string
		frame []byte
		alloc func(int) []byte
		max   float64
	}{
		// One allocation for the job slice, plus the bytes.Reader, the
		// BodyDecoder, and boxing the result into the Message interface; a
		// poll grant adds its per-query slice, a commit poll its commit list.
		{"PollReply", grant, nil, 5},
		{"commit poll", commit, nil, 5},
		// The chunk payload lands in the pooled buffer: reader + BodyDecoder
		// + interface boxing only.
		{"GetResp chunk pooled", chunkFrame, alloc, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(100, func() {
				body := tc.frame[5:]
				var d BodyDecoder
				if _, err := d.Decode(tc.frame[4], len(body), bytes.NewReader(body), tc.alloc); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.max {
				t.Errorf("decoding %s: %.1f allocs/op, want ≤ %.0f", tc.name, allocs, tc.max)
			}
		})
	}
}

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
		Hello{Site: 3, Cluster: "cloud", Cores: 16, Codec: WireBinary},
		Hello{},
		JobSpec{App: "knn", Params: []byte{1, 2, 3}, UnitSize: 4096, GroupBytes: 256 << 10,
			Index: bytes.Repeat([]byte{0xAB}, 100), GroupSize: 8,
			Checkpoint: []byte("ckpt"), HeartbeatEvery: 5e8, Codec: WireBinary},
		JobSpec{App: "kmeans"},
		JobsDone{Site: 2, Jobs: sampleJobs(3)},
		JobsDoneAck{Dup: []int{4, 9, 11}, Err: "partial"},
		JobsDoneAck{},
		JobsDoneAck{Err: "fenced", Code: CodeFenced},
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
		Hello{Site: 2, Cluster: "shared", Cores: 8, Codec: WireBinary, Proto: ProtoMulti},
		JobSpec{App: "histogram", Query: 7, Codec: WireBinary},
		JobsDone{Site: 1, Query: 3, Jobs: []jobs.Job{{ID: 12, Site: 1}}},
		CheckpointSave{Site: 0, Seq: 2, Query: 5, Data: []byte("q5")},
		ReductionResult{Site: 1, Query: 4, Object: []byte{1}, Processing: 2, Retrieval: 3, Sync: 4, LocalJobs: 5, StolenJobs: 6},
		ErrorReply{Err: "fenced", Code: CodeFenced},
		SiteSpec{HeartbeatEvery: 25e7, Codec: WireBinary},
		SiteSpec{},
		PollRequest{Site: 3, N: 9},
		PollReply{
			Queries: []QueryJobs{
				{Query: 1, Jobs: []jobs.Job{{ID: 1, Site: 0}, {ID: 2, Site: 1}}},
				{Query: 2},
			},
			Done:    []int{3, 4},
			Dropped: []int{5},
			Wait:    true,
		},
		PollReply{Shutdown: true},
		PollReply{Done: []int{2}, Drain: true},
		PollReply{},
		QuerySpecRequest{Site: 2, Query: 6},
		ResultAck{Err: "unknown query", Code: CodeUnknownQuery},
		ResultAck{},
		// Traced variants: optional trailing contexts, span piggybacking and
		// the traced tail-payload tags.
		Hello{Site: 4, Cluster: "edge", Cores: 2, Proto: ProtoMulti, Trace: TraceContext{SpanID: 5}},
		JobSpec{App: "knn", Query: 2, Codec: WireBinary, Trace: TraceContext{TraceID: 3}},
		JobsDone{Site: 1, Query: 3, Jobs: sampleJobs(2), Trace: TraceContext{TraceID: 4, SpanID: 9}},
		CheckpointSave{Site: 1, Seq: 7, Query: 5, Data: []byte("q5-traced"), Trace: TraceContext{TraceID: 6, SpanID: 2}},
		ReductionResult{Site: 0, Query: 1, Object: []byte{1, 2}, Processing: 3,
			Trace: TraceContext{TraceID: 2, SpanID: 8}},
		SiteSpec{HeartbeatEvery: 1e9, Codec: WireBinary, Trace: TraceContext{TraceID: 4, SpanID: 1}},
		PollRequest{Site: 2, N: 8, NowNS: 123456789, Spans: []WireSpan{
			{Trace: TraceContext{TraceID: 1, SpanID: 2}, Name: "job 3", Cat: "job", TID: 1, Job: 3, Start: 10, Dur: 20},
			{Trace: TraceContext{TraceID: 2, SpanID: 3}, Name: "retrieve", Cat: "retrieval", TID: 2, Query: 1, Job: 4, Start: 30, Dur: 40},
		}},
		PollRequest{Site: 0, N: 1, NowNS: 42}, // clock sample, no spans
		PollReply{Queries: []QueryJobs{
			{Query: 1, Jobs: sampleJobs(2), Trace: TraceContext{TraceID: 2, SpanID: 11}},
			{Query: 2}, // untraced grant alongside a traced one
		}, Wait: true},
		// Per-query elastic policies: optional trailing block after the
		// (possibly zero) trace context.
		Hello{Site: 5, Cluster: "client", Cores: 4, Proto: ProtoMulti,
			Policy: ElasticPolicy{Deadline: 120e9, Budget: 0.10, MaxWorkers: 8}},
		Hello{Site: 6, Cluster: "client", Cores: 4, Proto: ProtoMulti,
			Trace:  TraceContext{SpanID: 3},
			Policy: ElasticPolicy{Deadline: 90e9, MinWorkers: 1, MaxWorkers: 4}},
		JobSpec{App: "knn", Query: 3, Codec: WireBinary,
			Policy: ElasticPolicy{Budget: 0.25, MaxWorkers: 16}},
		JobSpec{App: "kmeans", Query: 4, Codec: WireBinary,
			Trace:  TraceContext{TraceID: 5},
			Policy: ElasticPolicy{Deadline: 240e9, Budget: 0.12, MinWorkers: 2, MaxWorkers: 6}},
		// Parking polls: the optional park word after the (possibly empty)
		// span block.
		PollRequest{Site: 1, N: 4, ParkNS: 20e6},
		PollRequest{Site: 1, N: 4, NowNS: 77, ParkNS: 20e6},
		PollRequest{Site: 2, N: 8, NowNS: 123456789, ParkNS: 20e6, Spans: []WireSpan{
			{Trace: TraceContext{TraceID: 1, SpanID: 2}, Name: "job 3", Cat: "job", TID: 1, Job: 3, Start: 10, Dur: 20},
		}},
		PollRequest{Site: 3, N: 1, ParkNS: -1}, // meaningless to the head, still round-trips
	}
}

// retiredFrames hand-builds well-formed frames of the four retired message
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
		{"retired tag 11 (Finished)", frame(11, bytes.Repeat([]byte{0xCD}, 50))},
		{"retired tag 11 (empty Finished)", frame(11, nil)},
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
	valid, err := AppendFrame(nil, JobsDoneAck{Dup: []int{4, 9}})
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
				// JobsDone with site and query, then a count claiming 1M jobs
				// in a tiny frame: must be rejected before allocating.
				body := appendInt(appendInt([]byte{byte(tagJobsDone)}, 0), 0)
				body = appendU32(body, 1<<20)
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
				body := []byte{byte(tagJobsDoneAck)}
				body = appendU32(body, 0)     // empty Err
				body = appendU32(body, 0)     // Code OK
				body = appendU32(body, 1<<28) // absurd dup count
				return append(frameLen(uint32(len(body))), body...)
			}(), ErrCorruptFrame},
		{"payload frame truncated mid-meta", validPayload[:6], ErrTruncatedFrame},
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

// TestGobBinaryCrossFieldCompat pins the negotiation contract: a gob peer
// without the Codec fields decodes to the zero value WireGob.
func TestCodecConstants(t *testing.T) {
	if WireGob != 0 {
		t.Fatalf("WireGob must be the zero value, got %d", WireGob)
	}
	if WireBinary <= WireGob {
		t.Fatalf("WireBinary (%d) must rank above WireGob", WireBinary)
	}
}

// ---------------------------------------------------------------------------
// Allocation-regression tests: encoding hot messages into a reused buffer
// must not allocate; decoding must stay within a small constant.

func TestEncodeAllocs(t *testing.T) {
	grant := PollReply{Queries: []QueryJobs{{Query: 1, Jobs: sampleJobs(64)}}}
	done := JobsDone{Site: 1, Jobs: sampleJobs(64)}
	chunkMsg := GetResp{Data: bytes.Repeat([]byte{3}, 64<<10)}
	buf := make([]byte, 0, 1<<20)
	cases := []struct {
		name string
		m    Message
	}{
		{"PollReply", grant},
		{"JobsDone", done},
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
	done, err := AppendFrame(nil, JobsDone{Site: 1, Jobs: sampleJobs(64)})
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
		// frameReader, and boxing the result into the Message interface; a
		// poll grant adds its per-query slice.
		{"PollReply", grant, nil, 5},
		{"JobsDone", done, nil, 4},
		// The chunk payload lands in the pooled buffer: reader + frameReader
		// + interface boxing only.
		{"GetResp chunk pooled", chunkFrame, alloc, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(100, func() {
				body := tc.frame[5:]
				if _, err := DecodeBinaryBody(tc.frame[4], len(body), bytes.NewReader(body), tc.alloc); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.max {
				t.Errorf("decoding %s: %.1f allocs/op, want ≤ %.0f", tc.name, allocs, tc.max)
			}
		})
	}
}

package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/chunk"
	"repro/internal/jobs"
)

// Binary wire format. Every message is one frame:
//
//	u32 LE length  — bytes that follow (tag + body); bounded by MaxFrameBytes
//	u8  tag        — message type (tagHello … tagListResp)
//	body           — fixed-layout fields in declaration order
//
// Field encodings (all little-endian, varint-free):
//
//	int/int64 → u64 two's complement     string/[]byte → u32 length + bytes
//	small counts, codes, sites, file/seq/unit counts → u32
//	bool → u8
//
// Messages that carry a bulk payload (PutReq.Data, GetResp.Data,
// ReductionResult.Object, CheckpointSave.Data) place it
// LAST with no length prefix — its length is whatever remains of the frame —
// so encoders write the payload bytes directly after the fixed meta and
// decoders read them straight into a caller-supplied (pooled) buffer. No
// reflection, no intermediate copies.
//
// Trace propagation (negotiated via Hello.Trace/SiteSpec.Trace) extends the
// format in two backward-compatible ways:
//
//   - Messages WITHOUT a payload tail (Hello, JobSpec, SiteSpec, JobsDone,
//     PollRequest, PollReply) append OPTIONAL TRAILING trace fields, emitted
//     only when non-zero. Decoders read them only when frame bytes remain,
//     so a zero context encodes bit-identically to the pre-trace format and
//     an old frame decodes to zero values.
//   - Tail-payload messages (CheckpointSave, ReductionResult) cannot grow a
//     tail, so a non-zero context selects a TRACED TAG variant
//     (tagCheckpointSaveTraced/tagReductionResultTraced) that inserts the
//     context before the payload. The traced tags are only sent after both
//     sides negotiated tracing, so old peers never see them.
//
// Per-query elastic policies (ElasticPolicy on Hello and JobSpec) extend the
// format the same trailing-field way: an optional 32-byte policy block
// (Deadline i64 ns | Budget f64 bits | MinWorkers | MaxWorkers) AFTER the
// optional trace context, emitted only when the policy is non-zero. Because
// the policy trails the trace, a non-zero policy forces the trace fields onto
// the wire too (zeros if untraced) so decoders can position both; zero-policy
// frames stay bit-identical to the pre-policy format.
//
// PollRequest.ParkNS follows the same rule: one optional i64 AFTER the span
// block (NowNS, span count, spans), emitted only when non-zero and forcing an
// empty span block onto the wire ahead of it, so a request that does not park
// is bit-identical to the pre-park format with and without spans.
const (
	tagHello byte = 1 + iota
	tagJobSpec
	_ // 3: retired JobRequest (single-query dialect)
	_ // 4: retired JobGrant
	tagJobsDone
	tagJobsDoneAck
	tagHeartbeat
	tagCheckpointSave
	tagCheckpointAck
	tagReductionResult
	_ // 11: retired Finished (blocking result broadcast)
	tagErrorReply
	tagPutReq
	tagPutResp
	tagGetReq
	tagGetResp
	tagStatReq
	tagStatResp
	tagListReq
	tagListResp
	tagSiteSpec
	tagPollRequest
	tagPollReply
	tagQuerySpecRequest
	tagResultAck
	// Traced variants of the tail-payload messages (see the trace-propagation
	// note above). New tags MUST be appended here, never inserted, and a
	// retired message keeps its number as a blank: a frame carrying it
	// decodes to ErrUnknownType, and every surviving tag stays put.
	tagCheckpointSaveTraced
	tagReductionResultTraced
	_ // 28: retired ResultRequest
)

// traceWire is the fixed encoded size of one TraceContext (two u64 words);
// wireSpanMin is the minimum encoded size of one WireSpan (empty strings).
const (
	traceWire   = 8 + 8
	wireSpanMin = traceWire + 4 + 4 + 4 + 4 + 8 + 8 + 8
)

// MaxFrameBytes caps a frame's length word. A hostile or corrupt length is
// rejected before any allocation happens. Generous: the largest legitimate
// frame is a chunk payload (tens of MB) or a whole-file Put.
const MaxFrameBytes = 512 << 20

// Typed decode errors. The binary decoder never panics on hostile input; it
// returns one of these (possibly wrapped with context).
var (
	// ErrFrameTooBig reports a length word exceeding MaxFrameBytes.
	ErrFrameTooBig = errors.New("protocol: frame exceeds size cap")
	// ErrTruncatedFrame reports a frame ending mid-field.
	ErrTruncatedFrame = errors.New("protocol: truncated frame")
	// ErrUnknownType reports an unrecognized message tag.
	ErrUnknownType = errors.New("protocol: unknown message type")
	// ErrCorruptFrame reports a structurally invalid frame: embedded lengths
	// or counts inconsistent with the frame size, or trailing garbage.
	ErrCorruptFrame = errors.New("protocol: corrupt frame")
)

// jobWire is the fixed encoded size of one jobs.Job:
// ID u64 | Site u32 | File u32 | Seq u32 | Offset u64 | Size u64 | Units u32.
const jobWire = 8 + 4 + 4 + 4 + 8 + 8 + 4

// ---------------------------------------------------------------------------
// Encoding.

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendInt(b []byte, v int) []byte   { return appendU64(b, uint64(int64(v))) }
func appendI64(b []byte, v int64) []byte { return appendU64(b, uint64(v)) }

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

func appendTrace(b []byte, t TraceContext) []byte {
	b = appendU64(b, t.TraceID)
	return appendU64(b, t.SpanID)
}

func appendPolicy(b []byte, p ElasticPolicy) []byte {
	b = appendI64(b, int64(p.Deadline))
	b = appendU64(b, math.Float64bits(p.Budget))
	b = appendInt(b, p.MinWorkers)
	return appendInt(b, p.MaxWorkers)
}

// appendTracePolicy emits the optional trailing trace-then-policy block of
// Hello/JobSpec: nothing when both are zero, trace alone when only it is
// set, and trace (zeros if need be) followed by the policy otherwise.
func appendTracePolicy(b []byte, t TraceContext, p ElasticPolicy) []byte {
	if t.Zero() && p.Zero() {
		return b
	}
	b = appendTrace(b, t)
	if !p.Zero() {
		b = appendPolicy(b, p)
	}
	return b
}

func appendJobs(b []byte, js []jobs.Job) []byte {
	b = appendU32(b, uint32(len(js)))
	for _, j := range js {
		b = appendU64(b, uint64(int64(j.ID)))
		b = appendU32(b, uint32(j.Site))
		b = appendU32(b, uint32(j.Ref.File))
		b = appendU32(b, uint32(j.Ref.Seq))
		b = appendU64(b, uint64(j.Ref.Offset))
		b = appendU64(b, uint64(j.Ref.Size))
		b = appendU32(b, uint32(j.Ref.Units))
	}
	return b
}

// AppendBinary encodes m onto dst (which should have the frame's length word
// reserved or prepended by the caller). It returns the grown meta buffer —
// tag byte plus fixed fields — and, for bulk-payload messages, the payload
// slice to transmit verbatim after the meta. The payload is aliased, never
// copied; the frame length is len(meta)+len(payload).
func AppendBinary(dst []byte, m Message) (meta, payload []byte, err error) {
	switch m := m.(type) {
	case Hello:
		dst = append(dst, tagHello)
		dst = appendInt(dst, m.Site)
		dst = appendStr(dst, m.Cluster)
		dst = appendInt(dst, m.Cores)
		dst = appendInt(dst, m.Codec)
		dst = appendInt(dst, m.Proto)
		dst = appendTracePolicy(dst, m.Trace, m.Policy)
	case JobSpec:
		dst = append(dst, tagJobSpec)
		dst = appendStr(dst, m.App)
		dst = appendBytes(dst, m.Params)
		dst = appendInt(dst, m.UnitSize)
		dst = appendInt(dst, m.GroupBytes)
		dst = appendBytes(dst, m.Index)
		dst = appendInt(dst, m.GroupSize)
		dst = appendBytes(dst, m.Checkpoint)
		dst = appendI64(dst, m.HeartbeatEvery)
		dst = appendInt(dst, m.Codec)
		dst = appendInt(dst, m.Query)
		dst = appendTracePolicy(dst, m.Trace, m.Policy)
	case JobsDone:
		dst = append(dst, tagJobsDone)
		dst = appendInt(dst, m.Site)
		dst = appendInt(dst, m.Query)
		dst = appendJobs(dst, m.Jobs)
		if !m.Trace.Zero() {
			dst = appendTrace(dst, m.Trace)
		}
	case JobsDoneAck:
		dst = append(dst, tagJobsDoneAck)
		dst = appendStr(dst, m.Err)
		dst = appendU32(dst, uint32(m.Code))
		dst = appendU32(dst, uint32(len(m.Dup)))
		for _, id := range m.Dup {
			dst = appendInt(dst, id)
		}
	case Heartbeat:
		dst = append(dst, tagHeartbeat)
		dst = appendInt(dst, m.Site)
	case CheckpointSave:
		if m.Trace.Zero() {
			dst = append(dst, tagCheckpointSave)
		} else {
			dst = append(dst, tagCheckpointSaveTraced)
		}
		dst = appendInt(dst, m.Site)
		dst = appendInt(dst, m.Seq)
		dst = appendInt(dst, m.Query)
		if !m.Trace.Zero() {
			dst = appendTrace(dst, m.Trace)
		}
		return dst, m.Data, nil
	case CheckpointAck:
		dst = append(dst, tagCheckpointAck)
		dst = appendStr(dst, m.Err)
		dst = appendU32(dst, uint32(m.Code))
	case ReductionResult:
		if m.Trace.Zero() {
			dst = append(dst, tagReductionResult)
		} else {
			dst = append(dst, tagReductionResultTraced)
		}
		dst = appendInt(dst, m.Site)
		dst = appendInt(dst, m.Query)
		dst = appendI64(dst, m.Processing)
		dst = appendI64(dst, m.Retrieval)
		dst = appendI64(dst, m.Sync)
		dst = appendInt(dst, m.LocalJobs)
		dst = appendInt(dst, m.StolenJobs)
		if !m.Trace.Zero() {
			dst = appendTrace(dst, m.Trace)
		}
		return dst, m.Object, nil
	case ErrorReply:
		dst = append(dst, tagErrorReply)
		dst = appendStr(dst, m.Err)
		dst = appendU32(dst, uint32(m.Code))
	case SiteSpec:
		dst = append(dst, tagSiteSpec)
		dst = appendI64(dst, m.HeartbeatEvery)
		dst = appendInt(dst, m.Codec)
		if !m.Trace.Zero() {
			dst = appendTrace(dst, m.Trace)
		}
	case PollRequest:
		dst = append(dst, tagPollRequest)
		dst = appendInt(dst, m.Site)
		dst = appendInt(dst, m.N)
		// ParkNS trails the span block, so a parking request puts the block
		// on the wire even when it is empty (the policy-after-trace rule).
		if m.NowNS != 0 || len(m.Spans) > 0 || m.ParkNS != 0 {
			dst = appendI64(dst, m.NowNS)
			dst = appendU32(dst, uint32(len(m.Spans)))
			for _, s := range m.Spans {
				dst = appendTrace(dst, s.Trace)
				dst = appendStr(dst, s.Name)
				dst = appendStr(dst, s.Cat)
				dst = appendU32(dst, uint32(s.TID))
				dst = appendU32(dst, uint32(s.Query))
				dst = appendInt(dst, s.Job)
				dst = appendI64(dst, s.Start)
				dst = appendI64(dst, s.Dur)
			}
		}
		if m.ParkNS != 0 {
			dst = appendI64(dst, m.ParkNS)
		}
	case PollReply:
		dst = append(dst, tagPollReply)
		var flags byte
		if m.Wait {
			flags |= 1
		}
		if m.Shutdown {
			flags |= 2
		}
		if m.Drain {
			flags |= 4
		}
		dst = append(dst, flags)
		dst = appendU32(dst, uint32(len(m.Queries)))
		for _, q := range m.Queries {
			dst = appendInt(dst, q.Query)
			dst = appendJobs(dst, q.Jobs)
		}
		dst = appendU32(dst, uint32(len(m.Done)))
		for _, q := range m.Done {
			dst = appendInt(dst, q)
		}
		dst = appendU32(dst, uint32(len(m.Dropped)))
		for _, q := range m.Dropped {
			dst = appendInt(dst, q)
		}
		// Optional trailing grant-trace section: one (query, context) entry
		// per traced grant. Untraced replies omit it entirely.
		traced := 0
		for _, q := range m.Queries {
			if !q.Trace.Zero() {
				traced++
			}
		}
		if traced > 0 {
			dst = appendU32(dst, uint32(traced))
			for _, q := range m.Queries {
				if q.Trace.Zero() {
					continue
				}
				dst = appendInt(dst, q.Query)
				dst = appendTrace(dst, q.Trace)
			}
		}
	case QuerySpecRequest:
		dst = append(dst, tagQuerySpecRequest)
		dst = appendInt(dst, m.Site)
		dst = appendInt(dst, m.Query)
	case ResultAck:
		dst = append(dst, tagResultAck)
		dst = appendStr(dst, m.Err)
		dst = appendU32(dst, uint32(m.Code))
	case PutReq:
		dst = append(dst, tagPutReq)
		dst = appendStr(dst, m.Key)
		return dst, m.Data, nil
	case PutResp:
		dst = append(dst, tagPutResp)
		dst = appendStr(dst, m.Err)
		dst = appendU32(dst, uint32(m.Code))
	case GetReq:
		dst = append(dst, tagGetReq)
		dst = appendStr(dst, m.Key)
		dst = appendI64(dst, m.Off)
		dst = appendI64(dst, m.Len)
	case GetResp:
		dst = append(dst, tagGetResp)
		dst = appendStr(dst, m.Err)
		dst = appendU32(dst, uint32(m.Code))
		return dst, m.Data, nil
	case StatReq:
		dst = append(dst, tagStatReq)
		dst = appendStr(dst, m.Key)
	case StatResp:
		dst = append(dst, tagStatResp)
		dst = appendI64(dst, m.Size)
		dst = appendStr(dst, m.Err)
		dst = appendU32(dst, uint32(m.Code))
	case ListReq:
		dst = append(dst, tagListReq)
		dst = appendStr(dst, m.Prefix)
	case ListResp:
		dst = append(dst, tagListResp)
		dst = appendU32(dst, uint32(len(m.Keys)))
		for _, k := range m.Keys {
			dst = appendStr(dst, k)
		}
	default:
		return dst, nil, fmt.Errorf("%w: %T", ErrUnknownType, m)
	}
	return dst, nil, nil
}

// ---------------------------------------------------------------------------
// Decoding.

// frameReader reads a frame body field by field, tracking the bytes that
// remain so every embedded length and count is validated against the frame
// size BEFORE anything is allocated.
type frameReader struct {
	r       io.Reader
	n       int // body bytes not yet consumed
	scratch [8]byte
}

func (f *frameReader) read(p []byte) error {
	if len(p) > f.n {
		return ErrTruncatedFrame
	}
	if _, err := io.ReadFull(f.r, p); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return ErrTruncatedFrame
		}
		return err
	}
	f.n -= len(p)
	return nil
}

func (f *frameReader) u32() (uint32, error) {
	if err := f.read(f.scratch[:4]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(f.scratch[:4]), nil
}

func (f *frameReader) u64() (uint64, error) {
	if err := f.read(f.scratch[:8]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(f.scratch[:8]), nil
}

func (f *frameReader) int() (int, error) {
	v, err := f.u64()
	return int(int64(v)), err
}

func (f *frameReader) i64() (int64, error) {
	v, err := f.u64()
	return int64(v), err
}

func (f *frameReader) u8() (byte, error) {
	if err := f.read(f.scratch[:1]); err != nil {
		return 0, err
	}
	return f.scratch[0], nil
}

// count reads a u32 element count and validates count*elemSize against the
// remaining frame bytes, so a hostile count cannot drive a huge allocation.
func (f *frameReader) count(elemSize int) (int, error) {
	v, err := f.u32()
	if err != nil {
		return 0, err
	}
	n := int(v)
	if n < 0 || n*elemSize > f.n {
		return 0, fmt.Errorf("%w: count %d × %d bytes exceeds frame", ErrCorruptFrame, n, elemSize)
	}
	return n, nil
}

func (f *frameReader) bytes() ([]byte, error) {
	n, err := f.count(1)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	b := make([]byte, n)
	if err := f.read(b); err != nil {
		return nil, err
	}
	return b, nil
}

func (f *frameReader) str() (string, error) {
	b, err := f.bytes()
	return string(b), err
}

// tail reads the frame's trailing bulk payload — everything not yet consumed
// — into a buffer from alloc (nil alloc ⇒ make). Zero remaining bytes yield
// a nil slice, matching the encoder's treatment of nil payloads.
func (f *frameReader) tail(alloc func(int) []byte) ([]byte, error) {
	if f.n == 0 {
		return nil, nil
	}
	var b []byte
	if alloc != nil {
		b = alloc(f.n)
	} else {
		b = make([]byte, f.n)
	}
	if err := f.read(b); err != nil {
		return nil, err
	}
	return b, nil
}

// trace reads one TraceContext (two u64 words).
func (f *frameReader) trace() (TraceContext, error) {
	var t TraceContext
	var err error
	if t.TraceID, err = f.u64(); err != nil {
		return t, err
	}
	t.SpanID, err = f.u64()
	return t, err
}

// optTrace reads a trailing optional TraceContext: zero when the frame has
// no bytes left (an untraced or pre-trace peer), the context otherwise.
func (f *frameReader) optTrace() (TraceContext, error) {
	if f.n == 0 {
		return TraceContext{}, nil
	}
	return f.trace()
}

// optPolicy reads a trailing optional ElasticPolicy: zero when the frame
// has no bytes left (a policy-free or pre-policy peer), the 32-byte policy
// block otherwise.
func (f *frameReader) optPolicy() (ElasticPolicy, error) {
	var p ElasticPolicy
	if f.n == 0 {
		return p, nil
	}
	d, err := f.i64()
	if err != nil {
		return p, err
	}
	p.Deadline = time.Duration(d)
	bits, err := f.u64()
	if err != nil {
		return p, err
	}
	p.Budget = math.Float64frombits(bits)
	if p.MinWorkers, err = f.int(); err != nil {
		return p, err
	}
	p.MaxWorkers, err = f.int()
	return p, err
}

// ints reads a u32 count followed by that many u64-encoded ints.
func (f *frameReader) ints() ([]int, error) {
	n, err := f.count(8)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]int, n)
	for i := range out {
		if out[i], err = f.int(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (f *frameReader) jobs() ([]jobs.Job, error) {
	n, err := f.count(jobWire)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	js := make([]jobs.Job, n)
	for i := range js {
		id, err := f.u64()
		if err != nil {
			return nil, err
		}
		site, err := f.u32()
		if err != nil {
			return nil, err
		}
		file, err := f.u32()
		if err != nil {
			return nil, err
		}
		seq, err := f.u32()
		if err != nil {
			return nil, err
		}
		off, err := f.u64()
		if err != nil {
			return nil, err
		}
		size, err := f.u64()
		if err != nil {
			return nil, err
		}
		units, err := f.u32()
		if err != nil {
			return nil, err
		}
		js[i] = jobs.Job{
			ID:   int(int64(id)),
			Site: int(int32(site)),
			Ref: chunk.Ref{
				File:   int(int32(file)),
				Seq:    int(int32(seq)),
				Offset: int64(off),
				Size:   int64(size),
				Units:  int(int32(units)),
			},
		}
	}
	return js, nil
}

// DecodeBinaryBody decodes one frame body (everything after the length word
// and tag) from r. bodyLen is the body's byte count; alloc, when non-nil,
// supplies the buffer for a trailing bulk payload (the transport passes
// bufpool.Get). The returned error is or wraps one of the typed errors
// above; the decoder never panics on malformed input.
func DecodeBinaryBody(tag byte, bodyLen int, r io.Reader, alloc func(int) []byte) (Message, error) {
	var d BodyDecoder
	return d.Decode(tag, bodyLen, r, alloc)
}

// BodyDecoder is a reusable DecodeBinaryBody: its internal frame reader
// escapes into io.Reader calls, so a caller decoding many frames (one
// transport connection) holds one BodyDecoder and avoids re-allocating the
// state per frame. Not goroutine-safe; zero value is ready to use.
type BodyDecoder struct {
	f frameReader
}

// Decode decodes one frame body exactly like DecodeBinaryBody.
func (d *BodyDecoder) Decode(tag byte, bodyLen int, r io.Reader, alloc func(int) []byte) (Message, error) {
	if bodyLen < 0 {
		return nil, ErrCorruptFrame
	}
	d.f.r, d.f.n = r, bodyLen
	m, err := decodeBody(tag, &d.f, alloc)
	if err != nil {
		return nil, err
	}
	if d.f.n != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %T", ErrCorruptFrame, d.f.n, m)
	}
	return m, nil
}

func decodeBody(tag byte, f *frameReader, alloc func(int) []byte) (Message, error) {
	switch tag {
	case tagHello:
		var m Hello
		var err error
		if m.Site, err = f.int(); err != nil {
			return nil, err
		}
		if m.Cluster, err = f.str(); err != nil {
			return nil, err
		}
		if m.Cores, err = f.int(); err != nil {
			return nil, err
		}
		if m.Codec, err = f.int(); err != nil {
			return nil, err
		}
		if m.Proto, err = f.int(); err != nil {
			return nil, err
		}
		if m.Trace, err = f.optTrace(); err != nil {
			return nil, err
		}
		if m.Policy, err = f.optPolicy(); err != nil {
			return nil, err
		}
		return m, nil
	case tagJobSpec:
		var m JobSpec
		var err error
		if m.App, err = f.str(); err != nil {
			return nil, err
		}
		if m.Params, err = f.bytes(); err != nil {
			return nil, err
		}
		if m.UnitSize, err = f.int(); err != nil {
			return nil, err
		}
		if m.GroupBytes, err = f.int(); err != nil {
			return nil, err
		}
		if m.Index, err = f.bytes(); err != nil {
			return nil, err
		}
		if m.GroupSize, err = f.int(); err != nil {
			return nil, err
		}
		if m.Checkpoint, err = f.bytes(); err != nil {
			return nil, err
		}
		if m.HeartbeatEvery, err = f.i64(); err != nil {
			return nil, err
		}
		if m.Codec, err = f.int(); err != nil {
			return nil, err
		}
		if m.Query, err = f.int(); err != nil {
			return nil, err
		}
		if m.Trace, err = f.optTrace(); err != nil {
			return nil, err
		}
		if m.Policy, err = f.optPolicy(); err != nil {
			return nil, err
		}
		return m, nil
	case tagJobsDone:
		var m JobsDone
		var err error
		if m.Site, err = f.int(); err != nil {
			return nil, err
		}
		if m.Query, err = f.int(); err != nil {
			return nil, err
		}
		if m.Jobs, err = f.jobs(); err != nil {
			return nil, err
		}
		if m.Trace, err = f.optTrace(); err != nil {
			return nil, err
		}
		return m, nil
	case tagJobsDoneAck:
		var m JobsDoneAck
		var err error
		if m.Err, err = f.str(); err != nil {
			return nil, err
		}
		code, err := f.u32()
		if err != nil {
			return nil, err
		}
		m.Code = int(int32(code))
		n, err := f.count(8)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			m.Dup = make([]int, n)
			for i := range m.Dup {
				if m.Dup[i], err = f.int(); err != nil {
					return nil, err
				}
			}
		}
		return m, nil
	case tagHeartbeat:
		var m Heartbeat
		var err error
		if m.Site, err = f.int(); err != nil {
			return nil, err
		}
		return m, nil
	case tagCheckpointSave, tagCheckpointSaveTraced:
		var m CheckpointSave
		var err error
		if m.Site, err = f.int(); err != nil {
			return nil, err
		}
		if m.Seq, err = f.int(); err != nil {
			return nil, err
		}
		if m.Query, err = f.int(); err != nil {
			return nil, err
		}
		if tag == tagCheckpointSaveTraced {
			if m.Trace, err = f.trace(); err != nil {
				return nil, err
			}
		}
		if m.Data, err = f.tail(alloc); err != nil {
			return nil, err
		}
		return m, nil
	case tagCheckpointAck:
		var m CheckpointAck
		var err error
		if m.Err, err = f.str(); err != nil {
			return nil, err
		}
		code, err := f.u32()
		if err != nil {
			return nil, err
		}
		m.Code = int(int32(code))
		return m, nil
	case tagReductionResult, tagReductionResultTraced:
		var m ReductionResult
		var err error
		if m.Site, err = f.int(); err != nil {
			return nil, err
		}
		if m.Query, err = f.int(); err != nil {
			return nil, err
		}
		if m.Processing, err = f.i64(); err != nil {
			return nil, err
		}
		if m.Retrieval, err = f.i64(); err != nil {
			return nil, err
		}
		if m.Sync, err = f.i64(); err != nil {
			return nil, err
		}
		if m.LocalJobs, err = f.int(); err != nil {
			return nil, err
		}
		if m.StolenJobs, err = f.int(); err != nil {
			return nil, err
		}
		if tag == tagReductionResultTraced {
			if m.Trace, err = f.trace(); err != nil {
				return nil, err
			}
		}
		if m.Object, err = f.tail(alloc); err != nil {
			return nil, err
		}
		return m, nil
	case tagErrorReply:
		var m ErrorReply
		var err error
		if m.Err, err = f.str(); err != nil {
			return nil, err
		}
		code, err := f.u32()
		if err != nil {
			return nil, err
		}
		m.Code = int(int32(code))
		return m, nil
	case tagSiteSpec:
		var m SiteSpec
		var err error
		if m.HeartbeatEvery, err = f.i64(); err != nil {
			return nil, err
		}
		if m.Codec, err = f.int(); err != nil {
			return nil, err
		}
		if m.Trace, err = f.optTrace(); err != nil {
			return nil, err
		}
		return m, nil
	case tagPollRequest:
		var m PollRequest
		var err error
		if m.Site, err = f.int(); err != nil {
			return nil, err
		}
		if m.N, err = f.int(); err != nil {
			return nil, err
		}
		if f.n > 0 {
			if m.NowNS, err = f.i64(); err != nil {
				return nil, err
			}
			ns, err := f.count(wireSpanMin)
			if err != nil {
				return nil, err
			}
			if ns > 0 {
				m.Spans = make([]WireSpan, ns)
				for i := range m.Spans {
					s := &m.Spans[i]
					if s.Trace, err = f.trace(); err != nil {
						return nil, err
					}
					if s.Name, err = f.str(); err != nil {
						return nil, err
					}
					if s.Cat, err = f.str(); err != nil {
						return nil, err
					}
					tid, err := f.u32()
					if err != nil {
						return nil, err
					}
					s.TID = int(int32(tid))
					q, err := f.u32()
					if err != nil {
						return nil, err
					}
					s.Query = int(int32(q))
					if s.Job, err = f.int(); err != nil {
						return nil, err
					}
					if s.Start, err = f.i64(); err != nil {
						return nil, err
					}
					if s.Dur, err = f.i64(); err != nil {
						return nil, err
					}
				}
			}
			if f.n > 0 {
				// Whatever follows the span block is exactly one ParkNS word,
				// which the encoder only writes when it is non-zero.
				if f.n != 8 {
					return nil, fmt.Errorf("%w: %d bytes after poll spans, want an 8-byte park word", ErrCorruptFrame, f.n)
				}
				if m.ParkNS, err = f.i64(); err != nil {
					return nil, err
				}
				if m.ParkNS == 0 {
					return nil, fmt.Errorf("%w: explicit zero park word", ErrCorruptFrame)
				}
			}
		}
		return m, nil
	case tagPollReply:
		var m PollReply
		flags, err := f.u8()
		if err != nil {
			return nil, err
		}
		m.Wait = flags&1 != 0
		m.Shutdown = flags&2 != 0
		m.Drain = flags&4 != 0
		// Each query entry costs at least its ID plus a jobs count word.
		nq, err := f.count(8 + 4)
		if err != nil {
			return nil, err
		}
		if nq > 0 {
			m.Queries = make([]QueryJobs, nq)
			for i := range m.Queries {
				if m.Queries[i].Query, err = f.int(); err != nil {
					return nil, err
				}
				if m.Queries[i].Jobs, err = f.jobs(); err != nil {
					return nil, err
				}
			}
		}
		if m.Done, err = f.ints(); err != nil {
			return nil, err
		}
		if m.Dropped, err = f.ints(); err != nil {
			return nil, err
		}
		if f.n > 0 {
			// Trailing grant-trace section (traced sessions only).
			nt, err := f.count(8 + traceWire)
			if err != nil {
				return nil, err
			}
			for i := 0; i < nt; i++ {
				q, err := f.int()
				if err != nil {
					return nil, err
				}
				tc, err := f.trace()
				if err != nil {
					return nil, err
				}
				for j := range m.Queries {
					if m.Queries[j].Query == q {
						m.Queries[j].Trace = tc
						break
					}
				}
			}
		}
		return m, nil
	case tagQuerySpecRequest:
		var m QuerySpecRequest
		var err error
		if m.Site, err = f.int(); err != nil {
			return nil, err
		}
		if m.Query, err = f.int(); err != nil {
			return nil, err
		}
		return m, nil
	case tagResultAck:
		var m ResultAck
		var err error
		if m.Err, err = f.str(); err != nil {
			return nil, err
		}
		code, err := f.u32()
		if err != nil {
			return nil, err
		}
		m.Code = int(int32(code))
		return m, nil
	case tagPutReq:
		var m PutReq
		var err error
		if m.Key, err = f.str(); err != nil {
			return nil, err
		}
		if m.Data, err = f.tail(alloc); err != nil {
			return nil, err
		}
		return m, nil
	case tagPutResp:
		var m PutResp
		var err error
		if m.Err, err = f.str(); err != nil {
			return nil, err
		}
		code, err := f.u32()
		if err != nil {
			return nil, err
		}
		m.Code = int(int32(code))
		return m, nil
	case tagGetReq:
		var m GetReq
		var err error
		if m.Key, err = f.str(); err != nil {
			return nil, err
		}
		if m.Off, err = f.i64(); err != nil {
			return nil, err
		}
		if m.Len, err = f.i64(); err != nil {
			return nil, err
		}
		return m, nil
	case tagGetResp:
		var m GetResp
		var err error
		if m.Err, err = f.str(); err != nil {
			return nil, err
		}
		code, err := f.u32()
		if err != nil {
			return nil, err
		}
		m.Code = int(int32(code))
		if m.Data, err = f.tail(alloc); err != nil {
			return nil, err
		}
		return m, nil
	case tagStatReq:
		var m StatReq
		var err error
		if m.Key, err = f.str(); err != nil {
			return nil, err
		}
		return m, nil
	case tagStatResp:
		var m StatResp
		var err error
		if m.Size, err = f.i64(); err != nil {
			return nil, err
		}
		if m.Err, err = f.str(); err != nil {
			return nil, err
		}
		code, err := f.u32()
		if err != nil {
			return nil, err
		}
		m.Code = int(int32(code))
		return m, nil
	case tagListReq:
		var m ListReq
		var err error
		if m.Prefix, err = f.str(); err != nil {
			return nil, err
		}
		return m, nil
	case tagListResp:
		var m ListResp
		n, err := f.count(4) // each key costs at least its u32 length word
		if err != nil {
			return nil, err
		}
		if n > 0 {
			m.Keys = make([]string, n)
			for i := range m.Keys {
				if m.Keys[i], err = f.str(); err != nil {
					return nil, err
				}
			}
		}
		return m, nil
	default:
		return nil, fmt.Errorf("%w: tag %d", ErrUnknownType, tag)
	}
}

// ---------------------------------------------------------------------------
// Whole-frame helpers (tests, fuzzing, and non-streaming callers).

// AppendFrame encodes m as one complete frame — length word, tag, body,
// payload — appended to dst.
func AppendFrame(dst []byte, m Message) ([]byte, error) {
	lenAt := len(dst)
	dst = appendU32(dst, 0) // patched below
	meta, payload, err := AppendBinary(dst, m)
	if err != nil {
		return dst[:lenAt], err
	}
	total := (len(meta) - lenAt - 4) + len(payload)
	if total > MaxFrameBytes {
		return dst[:lenAt], fmt.Errorf("%w: %d bytes", ErrFrameTooBig, total)
	}
	binary.LittleEndian.PutUint32(meta[lenAt:], uint32(total))
	return append(meta, payload...), nil
}

// DecodeFrame decodes the first complete frame in data, returning the
// message and the number of bytes consumed. It is the fuzzing entry point
// and must return a typed error — never panic — on any input.
func DecodeFrame(data []byte) (Message, int, error) {
	if len(data) < 4 {
		return nil, 0, ErrTruncatedFrame
	}
	n := binary.LittleEndian.Uint32(data)
	if n > MaxFrameBytes {
		return nil, 0, fmt.Errorf("%w: length word %d", ErrFrameTooBig, n)
	}
	if n < 1 {
		return nil, 0, fmt.Errorf("%w: empty frame", ErrCorruptFrame)
	}
	if uint32(len(data)-4) < n {
		return nil, 0, ErrTruncatedFrame
	}
	body := data[5 : 4+n]
	m, err := DecodeBinaryBody(data[4], int(n)-1, bytes.NewReader(body), nil)
	if err != nil {
		return nil, 0, err
	}
	return m, 4 + int(n), nil
}

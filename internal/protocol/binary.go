package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

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
// Each layout is written once, as its message's walk method: the one field
// list both encodes and decodes the message (see walker).
//
// Every field is always present, whatever its value: a TraceContext is two
// u64 words (zero when untraced), an ElasticPolicy a 32-byte block
// (Deadline i64 ns | Budget f64 bits | MinWorkers | MaxWorkers). No field's
// presence depends on its value or on the bytes left in the frame, so a
// frame one byte short of its layout is ErrTruncatedFrame and one with a
// byte to spare is ErrCorruptFrame. Head↔master sessions agree on the layout
// through Hello.Proto, the first field of the first frame.
const (
	tagHello byte = 1 + iota
	tagJobSpec
	_ // 3: retired JobRequest (single-query dialect)
	_ // 4: retired JobGrant
	_ // 5: retired JobsDone (a commit is now a poll that asks for nothing)
	_ // 6: retired JobsDoneAck
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
	// New tags MUST be appended here, never inserted, and a retired message
	// keeps its number as a blank: a frame carrying it decodes to
	// ErrUnknownType, and every surviving tag stays put.
	_ // 26: retired traced CheckpointSave (the trace is now a fixed field)
	_ // 27: retired traced ReductionResult
	_ // 28: retired ResultRequest
)

// traceWire is the fixed encoded size of one TraceContext (two u64 words);
// wireSpanMin is the minimum encoded size of one WireSpan (empty strings).
const (
	traceWire   = 8 + 8
	wireSpanMin = traceWire + 4 + 4 + 4 + 4 + 8 + 8 + 8
)

// commitMin is the minimum encoded size of one commit (a JobsDone, no
// jobs); ackMin that of one ack (a JobsDoneAck: empty Err, no duplicates).
const (
	commitMin = 8 + 8 + 4 + traceWire
	ackMin    = 4 + 4 + 4
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
// The walker.

// walker runs one message's field list in one of two modes.
//
// Encoding appends each field to buf; a trailing bulk payload is only
// aliased in payload, for the caller to send after the meta.
//
// Decoding reads each field from r, of which n body bytes remain. The first
// failure is kept in err and turns every later field into a no-op, so a walk
// never checks errors itself. Every count and length is checked against the
// bytes left before anything is allocated, and a tail payload is read into a
// buffer from alloc. Decoding writes the fields it reads; encoding writes
// nothing, so a message whose slices are shared can be encoded concurrently.
type walker struct {
	dec     bool
	buf     []byte
	payload []byte

	r     io.Reader
	n     int
	err   error
	alloc func(int) []byte
	// scratch is the 8-byte read buffer. It lives outside the walker so that
	// handing it to r does not move an encoding walker to the heap.
	scratch []byte
}

// fail records err unless the walk has already failed.
func (w *walker) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// fill reads len(p) body bytes into p, reporting whether it did.
func (w *walker) fill(p []byte) bool {
	if w.err != nil {
		return false
	}
	if len(p) > w.n {
		w.err = ErrTruncatedFrame
		return false
	}
	if _, err := io.ReadFull(w.r, p); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = ErrTruncatedFrame
		}
		w.err = err
		return false
	}
	w.n -= len(p)
	return true
}

// word walks one little-endian field of size 1, 4 or 8 bytes: encoding
// appends the low size bytes of v and returns v; decoding returns the field
// read, or 0 once the walk has failed.
func (w *walker) word(v uint64, size int) uint64 {
	if w.dec {
		return w.read(size)
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)[:len(w.buf)+size]
	return v
}

// read decodes a size-byte little-endian word.
func (w *walker) read(size int) uint64 {
	p := w.scratch[:8]
	clear(p[size:])
	if !w.fill(p[:size]) {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// u64 walks a u64 word.
func (w *walker) u64(v *uint64) {
	if x := w.word(*v, 8); w.dec {
		*v = x
	}
}

// i64 walks an int64 as a u64 word.
func (w *walker) i64(v *int64) {
	if x := w.word(uint64(*v), 8); w.dec {
		*v = int64(x)
	}
}

// int walks an int as a u64 two's-complement word.
func (w *walker) int(v *int) {
	if x := w.word(uint64(*v), 8); w.dec {
		*v = int(int64(x))
	}
}

// i32 walks a small int (a code, a site, a file/seq/unit count) as a u32
// two's-complement word.
func (w *walker) i32(v *int) {
	if x := w.word(uint64(uint32(*v)), 4); w.dec {
		*v = int(int32(x))
	}
}

// flags walks up to eight bools as the bits of one byte, low bit first.
// Decoding rejects a byte with any higher bit set.
func (w *walker) flags(bits ...*bool) {
	var b uint64
	for i, p := range bits {
		if *p {
			b |= 1 << i
		}
	}
	if b = w.word(b, 1); w.dec {
		if b>>len(bits) != 0 {
			w.fail(fmt.Errorf("%w: unknown flag bits %#x", ErrCorruptFrame, b))
		}
		for i, p := range bits {
			*p = b&(1<<i) != 0
		}
	}
}

// count walks a u32 element count. Decoding rejects a count whose elements,
// at min bytes each, cannot fit in the bytes left, and returns 0 for it.
func (w *walker) count(n, min int) int {
	n = int(w.word(uint64(n), 4))
	if w.dec && n*min > w.n {
		w.fail(fmt.Errorf("%w: count %d × %d bytes exceeds frame", ErrCorruptFrame, n, min))
		return 0
	}
	return n
}

// slice walks the count of *s and returns the slice whose elements the
// caller walks next: *s itself when encoding; when decoding, a fresh slice
// of the count read, stored in *s (left nil when the count is 0).
func slice[T any](w *walker, s *[]T, min int) []T {
	if n := w.count(len(*s), min); w.dec && n > 0 {
		*s = make([]T, n)
	}
	return *s
}

// bytes walks a u32 length and that many bytes; empty decodes to nil.
func (w *walker) bytes(p *[]byte) {
	if b := slice(w, p, 1); !w.dec {
		w.buf = append(w.buf, b...)
	} else {
		w.fill(b)
	}
}

// str walks a string as a u32 length and its bytes.
func (w *walker) str(s *string) {
	n := w.count(len(*s), 1)
	if !w.dec {
		w.buf = append(w.buf, *s...)
	} else if b := make([]byte, n); w.fill(b) {
		*s = string(b)
	}
}

// tail walks the trailing bulk payload: encoding aliases *p as the payload;
// decoding reads every byte left into a buffer from alloc (nil alloc ⇒
// make). Zero bytes left decode to nil, as a nil payload encodes.
func (w *walker) tail(p *[]byte) {
	if !w.dec {
		w.payload = *p
		return
	}
	if w.err != nil || w.n == 0 {
		return
	}
	var b []byte
	if w.alloc != nil {
		b = w.alloc(w.n)
	} else {
		b = make([]byte, w.n)
	}
	if w.fill(b) {
		*p = b
	}
}

func (w *walker) trace(t *TraceContext) {
	w.u64(&t.TraceID)
	w.u64(&t.SpanID)
}

// status walks the {Err, Code} pair that seven replies share.
func (w *walker) status(err *string, code *int) {
	w.str(err)
	w.i32(code)
}

func (w *walker) policy(p *ElasticPolicy) {
	w.i64((*int64)(&p.Deadline))
	if bits := w.word(math.Float64bits(p.Budget), 8); w.dec {
		p.Budget = math.Float64frombits(bits)
	}
	w.int(&p.MinWorkers)
	w.int(&p.MaxWorkers)
}

// ints walks a u32 count and that many u64-encoded ints.
func (w *walker) ints(v *[]int) {
	s := slice(w, v, 8)
	for i := range s {
		w.int(&s[i])
	}
}

// jobs walks a u32 count and that many jobs of jobWire bytes each.
func (w *walker) jobs(v *[]jobs.Job) {
	s := slice(w, v, jobWire)
	for i := range s {
		j := &s[i]
		w.int(&j.ID)
		w.i32(&j.Site)
		w.i32(&j.Ref.File)
		w.i32(&j.Ref.Seq)
		w.i64(&j.Ref.Offset)
		w.i64(&j.Ref.Size)
		w.i32(&j.Ref.Units)
	}
}

// ---------------------------------------------------------------------------
// Layouts: one walk per message, its fields in wire order.

func (m *Hello) walk(w *walker) {
	w.int(&m.Proto)
	w.int(&m.Site)
	w.str(&m.Cluster)
	w.int(&m.Cores)
	w.trace(&m.Trace)
}

func (m *JobSpec) walk(w *walker) {
	w.str(&m.App)
	w.bytes(&m.Params)
	w.int(&m.UnitSize)
	w.bytes(&m.Index)
	w.bytes(&m.Checkpoint)
	w.int(&m.Query)
	w.trace(&m.Trace)
	w.policy(&m.Policy)
}

func (m *JobsDone) walk(w *walker) {
	w.int(&m.Site)
	w.int(&m.Query)
	w.jobs(&m.Jobs)
	w.trace(&m.Trace)
}

func (m *JobsDoneAck) walk(w *walker) {
	w.status(&m.Err, &m.Code)
	w.ints(&m.Dup)
}

func (m *Heartbeat) walk(w *walker) { w.int(&m.Site) }

func (m *CheckpointSave) walk(w *walker) {
	w.int(&m.Site)
	w.int(&m.Seq)
	w.int(&m.Query)
	w.trace(&m.Trace)
	w.tail(&m.Data)
}

func (m *CheckpointAck) walk(w *walker) { w.status(&m.Err, &m.Code) }

func (m *ReductionResult) walk(w *walker) {
	w.int(&m.Site)
	w.int(&m.Query)
	w.i64(&m.Processing)
	w.i64(&m.Retrieval)
	w.i64(&m.Sync)
	w.int(&m.LocalJobs)
	w.int(&m.StolenJobs)
	w.trace(&m.Trace)
	w.tail(&m.Object)
}

func (m *ErrorReply) walk(w *walker) { w.status(&m.Err, &m.Code) }

func (m *SiteSpec) walk(w *walker) {
	w.i64(&m.HeartbeatEvery)
	w.trace(&m.Trace)
}

func (m *PollRequest) walk(w *walker) {
	w.int(&m.Site)
	w.int(&m.N)
	w.i64(&m.Bytes)
	w.i64(&m.NowNS)
	spans := slice(w, &m.Spans, wireSpanMin)
	for i := range spans {
		s := &spans[i]
		w.trace(&s.Trace)
		w.str(&s.Name)
		w.str(&s.Cat)
		w.i32(&s.TID)
		w.i32(&s.Query)
		w.int(&s.Job)
		w.i64(&s.Start)
		w.i64(&s.Dur)
	}
	w.i64(&m.ParkNS)
	commits := slice(w, &m.Commits, commitMin)
	for i := range commits {
		commits[i].walk(w)
	}
}

func (m *PollReply) walk(w *walker) {
	w.flags(&m.Shutdown, &m.Drain)
	// Each query entry costs at least its ID, trace and jobs count word.
	qs := slice(w, &m.Queries, 8+traceWire+4)
	for i := range qs {
		q := &qs[i]
		w.int(&q.Query)
		w.trace(&q.Trace)
		w.jobs(&q.Jobs)
	}
	w.ints(&m.Done)
	w.ints(&m.Dropped)
	acks := slice(w, &m.Acks, ackMin)
	for i := range acks {
		acks[i].walk(w)
	}
}

func (m *QuerySpecRequest) walk(w *walker) {
	w.int(&m.Site)
	w.int(&m.Query)
}

func (m *ResultAck) walk(w *walker) { w.status(&m.Err, &m.Code) }

func (m *PutReq) walk(w *walker) {
	w.str(&m.Key)
	w.tail(&m.Data)
}

func (m *PutResp) walk(w *walker) { w.status(&m.Err, &m.Code) }

func (m *GetReq) walk(w *walker) {
	w.str(&m.Key)
	w.i64(&m.Off)
	w.i64(&m.Len)
}

func (m *GetResp) walk(w *walker) {
	w.status(&m.Err, &m.Code)
	w.tail(&m.Data)
}

func (m *StatReq) walk(w *walker) { w.str(&m.Key) }

func (m *StatResp) walk(w *walker) {
	w.i64(&m.Size)
	w.status(&m.Err, &m.Code)
}

func (m *ListReq) walk(w *walker) { w.str(&m.Prefix) }

func (m *ListResp) walk(w *walker) {
	keys := slice(w, &m.Keys, 4) // each key costs at least its u32 length word
	for i := range keys {
		w.str(&keys[i])
	}
}

// ---------------------------------------------------------------------------
// Dispatch. The walks are called on concrete types, never through an
// interface, so neither the message nor the walker escapes: encoding stays
// allocation-free.

// AppendBinary encodes m onto dst (which should have the frame's length word
// reserved or prepended by the caller). It returns the grown meta buffer —
// tag byte plus fixed fields — and, for bulk-payload messages, the payload
// slice to transmit verbatim after the meta. The payload is aliased, never
// copied; the frame length is len(meta)+len(payload).
func AppendBinary(dst []byte, m Message) (meta, payload []byte, err error) {
	w := walker{buf: dst}
	// tag appends the frame's tag byte and hands the walker to the fields.
	tag := func(t byte) *walker { w.buf = append(w.buf, t); return &w }
	switch m := m.(type) {
	case Hello:
		m.walk(tag(tagHello))
	case JobSpec:
		m.walk(tag(tagJobSpec))
	case Heartbeat:
		m.walk(tag(tagHeartbeat))
	case CheckpointSave:
		m.walk(tag(tagCheckpointSave))
	case CheckpointAck:
		m.walk(tag(tagCheckpointAck))
	case ReductionResult:
		m.walk(tag(tagReductionResult))
	case ErrorReply:
		m.walk(tag(tagErrorReply))
	case SiteSpec:
		m.walk(tag(tagSiteSpec))
	case PollRequest:
		m.walk(tag(tagPollRequest))
	case PollReply:
		m.walk(tag(tagPollReply))
	case QuerySpecRequest:
		m.walk(tag(tagQuerySpecRequest))
	case ResultAck:
		m.walk(tag(tagResultAck))
	case PutReq:
		m.walk(tag(tagPutReq))
	case PutResp:
		m.walk(tag(tagPutResp))
	case GetReq:
		m.walk(tag(tagGetReq))
	case GetResp:
		m.walk(tag(tagGetResp))
	case StatReq:
		m.walk(tag(tagStatReq))
	case StatResp:
		m.walk(tag(tagStatResp))
	case ListReq:
		m.walk(tag(tagListReq))
	case ListResp:
		m.walk(tag(tagListResp))
	default:
		// Only a nil Message, or a type embedding one, gets here. Naming its
		// type would hand m to fmt and move every caller's message to the heap.
		return dst, nil, ErrUnknownType
	}
	return w.buf, w.payload, nil
}

// BodyDecoder decodes frame bodies. Its read buffer escapes into io.Reader
// calls, so a caller decoding many frames (one transport connection) holds
// one BodyDecoder and avoids re-allocating the state per frame. Not
// goroutine-safe; zero value is ready to use.
type BodyDecoder struct {
	w       walker
	scratch [8]byte
}

// Decode decodes one frame body (everything after the length word and tag)
// from r. bodyLen is the body's byte count; alloc, when non-nil, supplies
// the buffer for a trailing bulk payload (the transport passes
// bufpool.Get). The returned error is or wraps one of the typed errors
// above; the decoder never panics on malformed input.
func (d *BodyDecoder) Decode(tag byte, bodyLen int, r io.Reader, alloc func(int) []byte) (Message, error) {
	if bodyLen < 0 {
		return nil, ErrCorruptFrame
	}
	d.w = walker{dec: true, r: r, n: bodyLen, alloc: alloc, scratch: d.scratch[:]}
	w := &d.w
	var m Message
	switch tag {
	case tagHello:
		var v Hello
		v.walk(w)
		m = v
	case tagJobSpec:
		var v JobSpec
		v.walk(w)
		m = v
	case tagHeartbeat:
		var v Heartbeat
		v.walk(w)
		m = v
	case tagCheckpointSave:
		var v CheckpointSave
		v.walk(w)
		m = v
	case tagCheckpointAck:
		var v CheckpointAck
		v.walk(w)
		m = v
	case tagReductionResult:
		var v ReductionResult
		v.walk(w)
		m = v
	case tagErrorReply:
		var v ErrorReply
		v.walk(w)
		m = v
	case tagSiteSpec:
		var v SiteSpec
		v.walk(w)
		m = v
	case tagPollRequest:
		var v PollRequest
		v.walk(w)
		m = v
	case tagPollReply:
		var v PollReply
		v.walk(w)
		m = v
	case tagQuerySpecRequest:
		var v QuerySpecRequest
		v.walk(w)
		m = v
	case tagResultAck:
		var v ResultAck
		v.walk(w)
		m = v
	case tagPutReq:
		var v PutReq
		v.walk(w)
		m = v
	case tagPutResp:
		var v PutResp
		v.walk(w)
		m = v
	case tagGetReq:
		var v GetReq
		v.walk(w)
		m = v
	case tagGetResp:
		var v GetResp
		v.walk(w)
		m = v
	case tagStatReq:
		var v StatReq
		v.walk(w)
		m = v
	case tagStatResp:
		var v StatResp
		v.walk(w)
		m = v
	case tagListReq:
		var v ListReq
		v.walk(w)
		m = v
	case tagListResp:
		var v ListResp
		v.walk(w)
		m = v
	default:
		return nil, fmt.Errorf("%w: tag %d", ErrUnknownType, tag)
	}
	if w.err != nil {
		return nil, w.err
	}
	if w.n != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %T", ErrCorruptFrame, w.n, m)
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// Whole-frame helpers (tests, fuzzing, and non-streaming callers).

// AppendFrame encodes m as one complete frame — length word, tag, body,
// payload — appended to dst.
func AppendFrame(dst []byte, m Message) ([]byte, error) {
	lenAt := len(dst)
	meta, payload, err := AppendBinary(append(dst, 0, 0, 0, 0), m) // length patched below
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
	var d BodyDecoder
	m, err := d.Decode(data[4], int(n)-1, bytes.NewReader(data[5:4+n]), nil)
	if err != nil {
		return nil, 0, err
	}
	return m, 4 + int(n), nil
}

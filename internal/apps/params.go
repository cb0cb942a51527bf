package apps

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
)

// Application parameters travel in protocol.JobSpec.Params as fixed binary
// layouts built from three primitives: a signed varint per int (so a
// negative value survives to the factory's Validate, which names it), a
// little-endian IEEE-754 float64, and a uvarint-count-prefixed run of
// float64s. Each Encode*Params documents its field order. The decoders
// accept only the shortest varint form, so a payload that decodes is the
// one its params encode to.

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendFloat64s(b []byte, vs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = core.AppendFloat64(b, v)
	}
	return b
}

// paramReader consumes a parameter payload front to back. The first
// malformed field sets err (wrapping core.ErrBadPayload); later reads
// return zero values, so callers check once, in done.
type paramReader struct {
	data []byte
	err  error
}

func (r *paramReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s (%d bytes left)", core.ErrBadPayload, what, len(r.data))
	}
}

func (r *paramReader) int() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data)
	var canon [binary.MaxVarintLen64]byte
	if n <= 0 || int64(int(v)) != v || n != len(binary.AppendVarint(canon[:0], v)) {
		r.fail("bad varint")
		return 0
	}
	r.data = r.data[n:]
	return int(v)
}

func (r *paramReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.data) < 1 {
		r.fail("truncated byte")
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *paramReader) float64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.data) < 8 {
		r.fail("truncated float64")
		return 0
	}
	v := core.Float64At(r.data, 0)
	r.data = r.data[8:]
	return v
}

// count reads a uvarint element count and checks, before the caller
// allocates anything sized by it, that the rest of the payload can hold
// that many elements of at least elemSize bytes each.
func (r *paramReader) count(elemSize int) int {
	if r.err != nil {
		return 0
	}
	n, k := binary.Uvarint(r.data)
	var canon [binary.MaxVarintLen64]byte
	if k <= 0 || k != len(binary.AppendUvarint(canon[:0], n)) {
		r.fail("bad count")
		return 0
	}
	r.data = r.data[k:]
	if n > uint64(len(r.data)/elemSize) {
		r.fail(fmt.Sprintf("count %d exceeds payload", n))
		return 0
	}
	return int(n)
}

// float64s reads a count-prefixed run of float64s; an empty run reads as
// nil.
func (r *paramReader) float64s() []float64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = core.Float64At(r.data, 8*i)
	}
	r.data = r.data[8*n:]
	return vs
}

// rest hands the unread tail to a nested decoder, which then owns the
// trailing-bytes check.
func (r *paramReader) rest() []byte {
	d := r.data
	r.data = nil
	return d
}

// done returns the first read error, or an error if bytes remain.
func (r *paramReader) done() error {
	if r.err == nil && len(r.data) != 0 {
		r.fail("trailing bytes")
	}
	return r.err
}

package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Default-suppressed float64-vector codec, shared by reduction objects and
// parameter payloads whose vectors hold one value many times over (a
// cluster's PageRank contributions are zero for every node none of its
// edges point at). Wire layout:
//
//	uvarint n · 8 bytes default (IEEE-754 bits, little-endian) · 1 tag byte
//	tag 0 (dense):  n × 8 bytes, every entry in order
//	tag 1 (sparse): ⌈n/8⌉ bitmap bytes — bit i%8 of byte i/8 is set when
//	                entry i is stored — then 8 bytes per stored entry in
//	                order; every other entry is the default
//
// Entries are compared and carried as math.Float64bits, so −0, NaN payloads
// and infinities round-trip exactly. The encoder picks whichever layout is
// smaller for the data at hand.
const (
	vecDense  = 0
	vecSparse = 1
)

// AppendFloat64Vector appends the default-suppressed encoding of vs to b.
// def is the value worth suppressing; it only affects the size.
func AppendFloat64Vector(b []byte, vs []float64, def float64) []byte {
	defBits := math.Float64bits(def)
	stored := 0
	for _, v := range vs {
		if math.Float64bits(v) != defBits {
			stored++
		}
	}
	tag := byte(vecDense)
	if (len(vs)+7)/8+8*stored < 8*len(vs) {
		tag = vecSparse
	}
	return appendFloat64Vector(b, vs, defBits, stored, tag)
}

// appendFloat64Vector writes vs under the given tag; stored is the number
// of entries whose bits differ from defBits.
func appendFloat64Vector(b []byte, vs []float64, defBits uint64, stored int, tag byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	b = binary.LittleEndian.AppendUint64(b, defBits)
	b = append(b, tag)
	if tag == vecDense {
		off := len(b)
		b = append(b, make([]byte, 8*len(vs))...)
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[off+8*i:], math.Float64bits(v))
		}
		return b
	}
	// Which entries are stored is as good as random, so the loop avoids a
	// branch on it: every entry is written at the cursor and only stored
	// ones advance it (measured 3.3 ms against 5.5 ms per Mi entries). The
	// 8 bytes of slack take the writes made after the last stored entry.
	bm := len(b)
	off := bm + (len(vs)+7)/8
	b = append(b, make([]byte, off-bm+8*stored+8)...)
	for i, v := range vs {
		u := math.Float64bits(v)
		binary.LittleEndian.PutUint64(b[off:], u)
		keep := 0
		if u != defBits {
			keep = 1
		}
		b[bm+i/8] |= byte(keep) << (i % 8)
		off += 8 * keep
	}
	return b[:off]
}

// DecodeFloat64Vector reverses AppendFloat64Vector. data must hold exactly
// one vector of want entries: a different declared length, an unknown tag,
// truncated or trailing bytes, and bitmap bits past the last entry are all
// rejected with ErrBadPayload — before anything sized by the declared
// length is allocated.
func DecodeFloat64Vector(data []byte, want int) ([]float64, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("%w: float64 vector: bad length prefix", ErrBadPayload)
	}
	if want < 0 || n != uint64(want) {
		return nil, fmt.Errorf("%w: float64 vector declares %d entries, want %d", ErrBadPayload, n, want)
	}
	data = data[k:]
	if len(data) < 9 {
		return nil, fmt.Errorf("%w: float64 vector: header truncated", ErrBadPayload)
	}
	def := math.Float64frombits(binary.LittleEndian.Uint64(data))
	tag := data[8]
	data = data[9:]
	// Either layout needs at least a bit per entry, which bounds want by
	// the input size before it is used in arithmetic or allocation.
	if uint64(want) > 8*uint64(len(data)) {
		return nil, fmt.Errorf("%w: float64 vector: %d bytes cannot hold %d entries", ErrBadPayload, len(data), want)
	}
	switch tag {
	case vecDense:
		if len(data) != 8*want {
			return nil, fmt.Errorf("%w: dense float64 vector body is %d bytes, want %d", ErrBadPayload, len(data), 8*want)
		}
		vs := make([]float64, want)
		for i := range vs {
			vs[i] = Float64At(data, 8*i)
		}
		return vs, nil
	case vecSparse:
		bitmap := data[:(want+7)/8]
		vals := data[len(bitmap):]
		stored := 0
		for _, m := range bitmap {
			stored += bits.OnesCount8(m)
		}
		if len(vals) != 8*stored {
			return nil, fmt.Errorf("%w: sparse float64 vector has %d value bytes for %d stored entries", ErrBadPayload, len(vals), stored)
		}
		if want%8 != 0 && bitmap[len(bitmap)-1]>>(want%8) != 0 {
			return nil, fmt.Errorf("%w: sparse float64 vector: bitmap bits past entry %d", ErrBadPayload, want)
		}
		vs := make([]float64, want)
		for i := range vs {
			if bitmap[i/8]&(1<<(i%8)) != 0 {
				vs[i] = Float64At(vals, 0)
				vals = vals[8:]
			} else {
				vs[i] = def
			}
		}
		return vs, nil
	default:
		return nil, fmt.Errorf("%w: float64 vector: unknown tag %d", ErrBadPayload, tag)
	}
}

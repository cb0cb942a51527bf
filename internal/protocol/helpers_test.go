package protocol

import (
	"encoding/binary"

	"repro/internal/jobs"
)

// Encoding helpers for hand-built test frames. The fixed-width words are
// written with encoding/binary; the composite fields reuse the walker.

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

func appendInt(b []byte, v int) []byte { return binary.LittleEndian.AppendUint64(b, uint64(int64(v))) }

func appendTrace(b []byte, t TraceContext) []byte {
	w := walker{buf: b}
	w.trace(&t)
	return w.buf
}

func appendJobs(b []byte, js []jobs.Job) []byte {
	w := walker{buf: b}
	w.jobs(&js)
	return w.buf
}

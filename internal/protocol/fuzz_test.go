package protocol

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary bytes to the frame decoder. The decoder
// must never panic and never allocate beyond the frame cap: any outcome
// other than a clean (Message, n, nil) or a typed error is a bug. Run with
//
//	go test -fuzz=FuzzDecodeFrame ./internal/protocol
func FuzzDecodeFrame(f *testing.F) {
	// Seed with every valid message type plus the malformed shapes from the
	// table test so the fuzzer starts at the interesting boundaries.
	seed := func(frame []byte) {
		f.Add(frame)
		if len(frame) > 5 {
			f.Add(frame[:len(frame)-3]) // truncated body
			f.Add(frame[2:])            // desynced stream
		}
	}
	for _, m := range sampleMessages() {
		frame, err := AppendFrame(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		seed(frame)
	}
	for _, rf := range retiredFrames() {
		seed(rf.frame)
	}
	for _, tc := range malformedParkFrames() {
		f.Add(tc.frame)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{4, 0, 0, 0, 1, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if n < 5 || n > len(data) {
			t.Fatalf("DecodeFrame consumed %d of %d bytes", n, len(data))
		}
		if m == nil {
			t.Fatal("DecodeFrame returned nil message with nil error")
		}
		// A successfully decoded message must survive a re-encode/re-decode
		// round trip (the encoder is the source of truth for the layout).
		frame, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatalf("re-encoding decoded %T: %v", m, err)
		}
		m2, _, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("re-decoding %T: %v", m, err)
		}
		frame2, err := AppendFrame(nil, m2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, frame2) {
			t.Fatalf("%T not canonical:\n first %x\nsecond %x", m, frame, frame2)
		}
	})
}

package objstore

import (
	"testing"

	"repro/internal/protocol"
)

// FuzzObjstoreRequest drives the server's request loop over an in-process
// pipe, on a MemBackend and on a DirBackend, with one fuzzed request of a
// kind the loop serves and then a Stat. No request may panic the server or
// go unanswered. Run with
//
//	go test -fuzz=FuzzObjstoreRequest ./internal/objstore
func FuzzObjstoreRequest(f *testing.F) {
	f.Add(uint8(1), "k", int64(0), int64(1<<62), []byte(nil)) // the hostile GetReq
	f.Add(uint8(1), "k", int64(0), int64(1<<20), []byte(nil))
	f.Add(uint8(1), "k", int64(2), int64(-1), []byte(nil))
	f.Add(uint8(0), "a/b", int64(0), int64(0), []byte("data"))
	f.Add(uint8(2), "../k", int64(0), int64(0), []byte(nil))
	f.Add(uint8(3), "", int64(0), int64(0), []byte(nil))
	// Keys that name a directory rather than an object.
	f.Add(uint8(1), "", int64(0), int64(-1), []byte(nil))
	f.Add(uint8(1), "..", int64(0), int64(-1), []byte(nil))
	f.Add(uint8(2), ".", int64(0), int64(0), []byte(nil))
	f.Add(uint8(2), "/", int64(0), int64(0), []byte(nil))
	// Keys that clean to "k", and Puts that can name no object.
	f.Add(uint8(1), "/k", int64(0), int64(-1), []byte(nil))
	f.Add(uint8(1), "./k", int64(1), int64(2), []byte(nil))
	f.Add(uint8(2), "a/../k", int64(0), int64(0), []byte(nil))
	f.Add(uint8(0), "", int64(0), int64(0), []byte("data"))
	f.Add(uint8(0), "..", int64(0), int64(0), []byte("data"))
	f.Add(uint8(0), "k/x", int64(0), int64(0), []byte("data"))
	f.Fuzz(func(t *testing.T, kind uint8, key string, off, length int64, data []byte) {
		var req protocol.Message
		switch kind % 4 {
		case 0:
			req = protocol.PutReq{Key: key, Data: data}
		case 1:
			req = protocol.GetReq{Key: key, Off: off, Len: length}
		case 2:
			req = protocol.StatReq{Key: key}
		default:
			req = protocol.ListReq{Prefix: key}
		}
		for _, b := range []Backend{NewMemBackend(), DirBackend{Root: t.TempDir()}} {
			if err := b.Put("k", []byte("01234")); err != nil {
				t.Fatal(err)
			}
			c := serveOnPipe(t, b)
			roundTrip(t, c, req)
			roundTrip(t, c, protocol.StatReq{Key: "k"})
		}
	})
}

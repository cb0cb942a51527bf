package objstore

import (
	"bytes"
	"errors"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/workload"
)

func testBackends(t *testing.T) map[string]Backend {
	return map[string]Backend{
		"mem": NewMemBackend(),
		"dir": DirBackend{Root: t.TempDir()},
	}
}

func TestBackendBasics(t *testing.T) {
	for name, b := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte("hello object store world")
			if err := b.Put("a/b.dat", data); err != nil {
				t.Fatalf("Put: %v", err)
			}
			got, err := b.Get("a/b.dat", 0, -1)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("Get all = %q, %v", got, err)
			}
			got, err = b.Get("a/b.dat", 6, 6)
			if err != nil || string(got) != "object" {
				t.Fatalf("Get range = %q, %v", got, err)
			}
			size, err := b.Stat("a/b.dat")
			if err != nil || size != int64(len(data)) {
				t.Fatalf("Stat = %d, %v", size, err)
			}
			if _, err := b.Get("missing", 0, -1); !errors.Is(err, ErrNotFound) {
				t.Errorf("Get missing: %v", err)
			}
			if _, err := b.Stat("missing"); !errors.Is(err, ErrNotFound) {
				t.Errorf("Stat missing: %v", err)
			}
			if err := b.Put("a/c.dat", []byte("x")); err != nil {
				t.Fatal(err)
			}
			keys, err := b.List("a/")
			if err != nil || len(keys) != 2 || keys[0] != "a/b.dat" {
				t.Errorf("List = %v, %v", keys, err)
			}
		})
	}
}

func TestMemBackendRangeErrors(t *testing.T) {
	b := NewMemBackend()
	if err := b.Put("k", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get("k", -1, 2); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := b.Get("k", 5, 100); err == nil {
		t.Error("overlong range accepted")
	}
	if got, _ := b.Get("k", 10, 0); len(got) != 0 {
		t.Errorf("empty tail range = %q", got)
	}
}

// TestBackendRanges: both backends check a range against the object before
// they read or allocate anything, and refuse the same ranges with
// ErrBadRange.
func TestBackendRanges(t *testing.T) {
	for name, b := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			if err := b.Put("k", []byte("01234")); err != nil {
				t.Fatal(err)
			}
			for _, tc := range []struct {
				off, length int64
				want        string // "" with bad set: refused
				bad         bool
			}{
				{0, -1, "01234", false},
				{2, 2, "23", false},
				{5, 0, "", false},
				{5, -1, "", false},
				{0, 1 << 20, "", true}, // longer than the object
				{0, 1 << 62, "", true}, // more than can be allocated
				{1, math.MaxInt64, "", true},
				{-1, 2, "", true},
				{6, -1, "", true},
			} {
				got, err := b.Get("k", tc.off, tc.length)
				if tc.bad {
					if !errors.Is(err, ErrBadRange) {
						t.Errorf("Get(%d, %d) = %d bytes, %v; want ErrBadRange", tc.off, tc.length, len(got), err)
					}
				} else if err != nil || string(got) != tc.want {
					t.Errorf("Get(%d, %d) = %q, %v; want %q", tc.off, tc.length, got, err, tc.want)
				}
			}
		})
	}
}

// TestBackendDirectoryKeys: a key that names a directory — the root, or
// "a" once "a/b" exists — is not an object. Both backends answer
// ErrNotFound for it, and the server reports CodeNotFound, so a client
// gives up at once instead of retrying a read that can never succeed.
func TestBackendDirectoryKeys(t *testing.T) {
	for name, b := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			if err := b.Put("a/b", []byte("01234")); err != nil {
				t.Fatal(err)
			}
			c := serveOnPipe(t, b)
			for _, key := range []string{"", "/", ".", "..", "a", "a/", "/a"} {
				if got, err := b.Get(key, 0, -1); !errors.Is(err, ErrNotFound) {
					t.Errorf("Get(%q) = %d bytes, %v; want ErrNotFound", key, len(got), err)
				}
				if size, err := b.Stat(key); !errors.Is(err, ErrNotFound) {
					t.Errorf("Stat(%q) = %d, %v; want ErrNotFound", key, size, err)
				}
				if rep, ok := roundTrip(t, c, protocol.GetReq{Key: key, Len: -1}).(protocol.GetResp); !ok || rep.Code != protocol.CodeNotFound {
					t.Errorf("GetReq %q answered %+v, want CodeNotFound", key, rep)
				}
				if rep, ok := roundTrip(t, c, protocol.StatReq{Key: key}).(protocol.StatResp); !ok || rep.Code != protocol.CodeNotFound {
					t.Errorf("StatReq %q answered %+v, want CodeNotFound", key, rep)
				}
			}
		})
	}
}

// TestBackendKeyRules: both backends clean a key the same way, so "/k",
// "./k" and "a/../k" address the object "k" in either; a Put to a key that
// can name no object — the root, or on a DirBackend a directory or a path
// through a stored object — is refused with the permanent CodeBadKey, not
// retried as transient.
func TestBackendKeyRules(t *testing.T) {
	type step struct {
		req       protocol.Message
		mem, dir  int    // wanted reply code per backend
		wantBytes string // for an answered GetReq
	}
	get := func(key string) protocol.Message { return protocol.GetReq{Key: key, Len: -1} }
	put := func(key string) protocol.Message { return protocol.PutReq{Key: key, Data: []byte("new")} }
	const ok, notFound, badKey = protocol.CodeOK, protocol.CodeNotFound, protocol.CodeBadKey
	steps := []step{
		{get("k"), ok, ok, "01234"},
		{get("/k"), ok, ok, "01234"},
		{get("./k"), ok, ok, "01234"},
		{get("a/../k"), ok, ok, "01234"},
		{get("//k"), ok, ok, "01234"},
		{protocol.StatReq{Key: "/k"}, ok, ok, ""},
		{get("a"), notFound, notFound, ""},
		{get("a/b/c"), notFound, notFound, ""},
		{protocol.StatReq{Key: "a/b/c"}, notFound, notFound, ""},
		{put(""), badKey, badKey, ""},
		{put("/"), badKey, badKey, ""},
		{put(".."), badKey, badKey, ""},
		{put("a"), ok, badKey, ""},     // a directory on a DirBackend
		{put("a/b/c"), ok, badKey, ""}, // runs through the object "a/b"
		{put("/k2"), ok, ok, ""},
		{get("k2"), ok, ok, "new"},
		{get("../k2"), ok, ok, "new"},
	}
	for name, b := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			c := serveOnPipe(t, b)
			for _, key := range []string{"k", "a/b"} {
				if rep := roundTrip(t, c, protocol.PutReq{Key: key, Data: []byte("01234")}).(protocol.PutResp); rep.Code != ok {
					t.Fatalf("Put(%q) = %+v", key, rep)
				}
			}
			for _, st := range steps {
				want := st.mem
				if name == "dir" {
					want = st.dir
				}
				var code int
				var data []byte
				switch rep := roundTrip(t, c, st.req).(type) {
				case protocol.GetResp:
					code, data = rep.Code, rep.Data
				case protocol.StatResp:
					code = rep.Code
				case protocol.PutResp:
					code = rep.Code
				default:
					t.Fatalf("%#v answered %#v", st.req, rep)
				}
				if code != want || want == ok && st.wantBytes != "" && string(data) != st.wantBytes {
					t.Errorf("%#v answered code %d, %q; want code %d, %q", st.req, code, data, want, st.wantBytes)
				}
			}
		})
	}
	// The client reads CodeBadKey as a permanent error.
	c := Dial("tcp", startServer(t, NewMemBackend()), 1)
	defer c.Close()
	var oe *OpError
	if err := c.Put("", []byte("x")); !errors.As(err, &oe) || !oe.Permanent() || !errors.Is(err, ErrBadKey) {
		t.Errorf("client Put(\"\") = %v, want a permanent ErrBadKey", err)
	}
}

// serveOnPipe runs a server's request loop over backend on one end of an
// in-process pipe and returns the other end.
func serveOnPipe(tb testing.TB, backend Backend) *transport.Conn {
	client, server := transport.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		NewServer(backend).handle(server)
	}()
	tb.Cleanup(func() {
		client.Close()
		<-done
	})
	return client
}

// roundTrip sends req and returns the reply; a closed connection fails tb.
func roundTrip(tb testing.TB, c *transport.Conn, req protocol.Message) protocol.Message {
	tb.Helper()
	if err := c.Send(req); err != nil {
		tb.Fatalf("send %#v: %v", req, err)
	}
	rep, err := c.Recv()
	if err != nil {
		tb.Fatalf("no reply to %#v: %v", req, err)
	}
	return rep
}

// TestServerSurvivesHostileGet: a GetReq for more than the object holds —
// once a makeslice panic that ended an s3d on a DirBackend — gets a typed
// error reply, and the connection serves the next request.
func TestServerSurvivesHostileGet(t *testing.T) {
	for name, b := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			if err := b.Put("k", []byte("01234")); err != nil {
				t.Fatal(err)
			}
			c := serveOnPipe(t, b)
			for _, req := range []protocol.GetReq{{Key: "k", Len: 1 << 62}, {Key: "k", Len: 1 << 20}} {
				rep, ok := roundTrip(t, c, req).(protocol.GetResp)
				if !ok || rep.Code != protocol.CodeBadRange || len(rep.Data) != 0 {
					t.Errorf("%+v answered %+v, want a bad-range GetResp", req, rep)
				}
			}
			rep, ok := roundTrip(t, c, protocol.GetReq{Key: "k", Off: 1, Len: 3}).(protocol.GetResp)
			if !ok || rep.Err != "" || string(rep.Data) != "123" {
				t.Errorf("next request answered %+v, want \"123\"", rep)
			}
		})
	}
}

func TestMemBackendCopiesData(t *testing.T) {
	b := NewMemBackend()
	data := []byte("mutable")
	if err := b.Put("k", data); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	got, _ := b.Get("k", 0, -1)
	if string(got) != "mutable" {
		t.Error("backend aliased caller's buffer")
	}
	got[0] = 'Y'
	again, _ := b.Get("k", 0, -1)
	if string(again) != "mutable" {
		t.Error("backend returned aliased buffer")
	}
}

// startServer brings up a server on loopback and returns its address.
func startServer(t *testing.T, backend Backend) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(backend)
	srv.Logf = t.Logf
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String()
}

func TestClientServer(t *testing.T) {
	addr := startServer(t, NewMemBackend())
	c := Dial("tcp", addr, 4)
	defer c.Close()

	if err := c.Put("obj", []byte("abcdefghij")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := c.GetRange("obj", 2, 3)
	if err != nil || string(got) != "cde" {
		t.Fatalf("GetRange = %q, %v", got, err)
	}
	size, err := c.Stat("obj")
	if err != nil || size != 10 {
		t.Fatalf("Stat = %d, %v", size, err)
	}
	keys, err := c.List("")
	if err != nil || len(keys) != 1 {
		t.Fatalf("List = %v, %v", keys, err)
	}
	if _, err := c.GetRange("missing", 0, -1); err == nil {
		t.Error("missing key fetch succeeded")
	}
	if _, err := c.Stat("missing"); err == nil {
		t.Error("missing key stat succeeded")
	}
}

func TestClientConcurrentFetches(t *testing.T) {
	backend := NewMemBackend()
	payload := make([]byte, 1<<16)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := backend.Put("big", payload); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, backend)
	c := Dial("tcp", addr, 8)
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			off := int64(i * 1024)
			got, err := c.GetRange("big", off, 1024)
			if err != nil {
				t.Errorf("fetch %d: %v", i, err)
				return
			}
			if !bytes.Equal(got, payload[off:off+1024]) {
				t.Errorf("fetch %d: payload mismatch", i)
			}
		}(i)
	}
	wg.Wait()
}

func TestSourceReadsChunks(t *testing.T) {
	gen := workload.UniformPoints{Seed: 3, Dim: 2}
	ix, err := chunk.Layout("s3", 512, gen.UnitSize(), 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	mem := chunk.NewMemSource(ix)
	if err := workload.Build(ix, gen, mem); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, NewMemBackend())
	c := Dial("tcp", addr, 8)
	defer c.Close()
	if err := Upload(c, ix, mem, "index.grix"); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	if _, err := c.Stat("index.grix"); err != nil {
		t.Errorf("index not uploaded: %v", err)
	}
	for _, threads := range []int{1, 4} {
		src := &Source{Client: c, Index: ix, Threads: threads}
		for _, ref := range ix.AllRefs() {
			want, err := mem.ReadChunk(ref)
			if err != nil {
				t.Fatal(err)
			}
			got, err := src.ReadChunk(ref)
			if err != nil {
				t.Fatalf("threads=%d ReadChunk(%v): %v", threads, ref, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("threads=%d chunk %v mismatch", threads, ref)
			}
		}
	}
	src := &Source{Client: c, Index: ix, Threads: 2}
	if _, err := src.ReadChunk(chunk.Ref{File: 42}); err == nil {
		t.Error("out-of-range file read succeeded")
	}
}

func TestDirBackendKeyTraversal(t *testing.T) {
	root := t.TempDir()
	b := DirBackend{Root: root}
	// A hostile key must not escape the root.
	if err := b.Put("../../escape.txt", []byte("x")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, "..", "..", "escape.txt")); err == nil {
		t.Fatal("key escaped the backend root")
	}
	// The object is still retrievable under its sanitized key.
	if _, err := b.Get("../../escape.txt", 0, -1); err != nil {
		t.Errorf("sanitized key not readable back: %v", err)
	}
	keys, err := b.List("")
	if err != nil || len(keys) != 1 {
		t.Errorf("List = %v, %v", keys, err)
	}
}

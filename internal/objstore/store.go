// Package objstore is the repository's stand-in for Amazon S3: a simple
// object store holding a dataset's files, addressable by key with byte-range
// GETs, served over the framework transport. Combined with internal/netem
// shaping it reproduces the bandwidth-constrained remote-retrieval path that
// dominates the paper's data-intensive experiments.
package objstore

import (
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"

	"repro/internal/bufpool"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// ErrNotFound reports a missing key.
var ErrNotFound = errors.New("objstore: key not found")

// Backend stores object bytes. Implementations must be safe for concurrent
// use. Keys are slash-separated paths, and both backends here clean a key
// the same way (cleanKey) before they use it, so "/k", "./k", "a/../k" and
// "k" name one object in either, and "" names none.
type Backend interface {
	// Put stores data under key. Implementations must not retain data after
	// returning: the server recycles the receive buffer.
	Put(key string, data []byte) error
	// Get returns length bytes starting at off; length < 0 means to the end.
	Get(key string, off, length int64) ([]byte, error)
	Stat(key string) (int64, error)
	List(prefix string) ([]string, error)
}

// Slicer is an optional Backend fast path: GetSlice returns a slice ALIASING
// the backend's storage — zero copies between the stored object and the
// socket. The server sends such slices directly and never writes to or
// pools them. Implementations must guarantee the returned slice stays valid
// and immutable even if the key is overwritten concurrently (MemBackend
// does: Put installs a fresh copy, leaving old slices intact for readers).
type Slicer interface {
	GetSlice(key string, off, length int64) ([]byte, error)
}

// Pooler is an optional Backend marker: Get returns buffers drawn from
// bufpool that the server returns to the pool after the reply is flushed.
type Pooler interface {
	PooledGet()
}

// cleanKey maps key to the name of the object it addresses: the slash
// path cleaned as if rooted, without the leading slash, so no key climbs
// above the root. The root, "", names no object: Put refuses it with
// ErrBadKey and Get and Stat answer ErrNotFound.
func cleanKey(key string) string {
	if key != "" && key[0] != '/' && key != "." && key != ".." &&
		!strings.HasPrefix(key, "../") && path.Clean(key) == key {
		return key // already clean, the common case: no allocation
	}
	return path.Clean("/" + key)[1:]
}

// rootKeyError is Put's answer for a key that cleans to the root.
func rootKeyError(key string) error {
	return fmt.Errorf("%w: %q names no object", ErrBadKey, key)
}

// MemBackend keeps objects in memory.
type MemBackend struct {
	mu   sync.RWMutex
	objs map[string][]byte
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{objs: make(map[string][]byte)}
}

// Put implements Backend.
func (b *MemBackend) Put(key string, data []byte) error {
	name := cleanKey(key)
	if name == "" {
		return rootKeyError(key)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	b.mu.Lock()
	b.objs[name] = cp
	b.mu.Unlock()
	return nil
}

// Get implements Backend.
func (b *MemBackend) Get(key string, off, length int64) ([]byte, error) {
	b.mu.RLock()
	data, ok := b.objs[cleanKey(key)]
	b.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return slice(data, off, length, key)
}

// GetSlice implements Slicer: the returned range aliases the stored object,
// so range GETs are served with zero copies. Safe under concurrent Put —
// Put installs a fresh buffer and never mutates the old one, which stays
// alive for any reader still holding it.
func (b *MemBackend) GetSlice(key string, off, length int64) ([]byte, error) {
	b.mu.RLock()
	data, ok := b.objs[cleanKey(key)]
	b.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	end, err := bounds(key, off, length, int64(len(data)))
	if err != nil {
		return nil, err
	}
	return data[off:end:end], nil
}

// Stat implements Backend.
func (b *MemBackend) Stat(key string) (int64, error) {
	b.mu.RLock()
	data, ok := b.objs[cleanKey(key)]
	b.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return int64(len(data)), nil
}

// List implements Backend.
func (b *MemBackend) List(prefix string) ([]string, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var keys []string
	for k := range b.objs {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

func slice(data []byte, off, length int64, key string) ([]byte, error) {
	end, err := bounds(key, off, length, int64(len(data)))
	if err != nil {
		return nil, err
	}
	out := make([]byte, end-off)
	copy(out, data[off:end])
	return out, nil
}

// bounds checks the range [off, off+length) of key's size-byte object — a
// negative length runs to the end — before anything is read or allocated,
// and returns the range's end.
func bounds(key string, off, length, size int64) (end int64, err error) {
	if off < 0 || off > size {
		return 0, fmt.Errorf("%w: offset %d for %q (%d bytes)", ErrBadRange, off, key, size)
	}
	if length < 0 {
		return size, nil
	}
	if length > size-off { // off+length may overflow
		return 0, fmt.Errorf("%w: %d+%d beyond %q (%d bytes)", ErrBadRange, off, length, key, size)
	}
	return off + length, nil
}

// DirBackend stores each object as a file under a root directory. Keys may
// not escape the root, and a key that names a directory (the root itself,
// or "a" once "a/b" exists) or runs through a stored object ("a/b/c" once
// "a/b" exists) is not an object: Get and Stat answer ErrNotFound for it,
// as MemBackend does, and Put refuses it with ErrBadKey, since no retry can
// make room for it.
type DirBackend struct{ Root string }

func (b DirBackend) path(key string) string {
	return filepath.Join(b.Root, filepath.FromSlash(cleanKey(key)))
}

// missing reports whether a filesystem error means no object has the key:
// no such file, or a path component that is a stored object's file.
func missing(err error) bool {
	return os.IsNotExist(err) || errors.Is(err, syscall.ENOTDIR)
}

// Put implements Backend.
func (b DirBackend) Put(key string, data []byte) error {
	if cleanKey(key) == "" {
		return rootKeyError(key)
	}
	p := b.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		if errors.Is(err, syscall.ENOTDIR) {
			return fmt.Errorf("%w: %q runs through a stored object", ErrBadKey, key)
		}
		return err
	}
	if err := os.WriteFile(p, data, 0o644); err != nil {
		if fi, serr := os.Stat(p); serr == nil && fi.IsDir() {
			return fmt.Errorf("%w: %q names a directory", ErrBadKey, key)
		}
		return err
	}
	return nil
}

// Get implements Backend.
func (b DirBackend) Get(key string, off, length int64) ([]byte, error) {
	f, err := os.Open(b.path(key))
	if err != nil {
		if missing(err) {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
		}
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.IsDir() {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	end, err := bounds(key, off, length, fi.Size())
	if err != nil {
		return nil, err
	}
	// Pooled read buffer: the server returns it to bufpool once the reply
	// has been flushed (DirBackend implements Pooler). Other callers simply
	// let the GC take it.
	buf := bufpool.Get(int(end - off))
	if n, err := f.ReadAt(buf, off); n < len(buf) {
		bufpool.Put(buf)
		return nil, fmt.Errorf("objstore: reading %q: %w", key, err) // shrank under the read
	}
	return buf, nil
}

// PooledGet marks DirBackend.Get buffers as pool-returnable (Pooler).
func (DirBackend) PooledGet() {}

// Stat implements Backend.
func (b DirBackend) Stat(key string) (int64, error) {
	fi, err := os.Stat(b.path(key))
	switch {
	case missing(err) || err == nil && fi.IsDir():
		return 0, fmt.Errorf("%w: %q", ErrNotFound, key)
	case err != nil:
		return 0, err
	}
	return fi.Size(), nil
}

// List implements Backend.
func (b DirBackend) List(prefix string) ([]string, error) {
	var keys []string
	err := filepath.Walk(b.Root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(b.Root, path)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(keys)
	return keys, nil
}

// ---------------------------------------------------------------------------
// Server.

// Server serves a Backend over the framework transport.
type Server struct {
	backend Backend
	// Logf, when set, receives diagnostic messages; defaults to log.Printf.
	Logf func(format string, args ...any)
	// Obs, when non-nil, records request counters (objstore_get_total,
	// objstore_put_total, …), served-byte counters, per-request latency
	// histograms, and an error counter. Set before Serve.
	Obs *obs.Obs

	mu       sync.Mutex
	listener net.Listener
	closed   bool
	wg       sync.WaitGroup
}

// NewServer returns a server for backend.
func NewServer(backend Backend) *Server {
	return &Server{backend: backend, Logf: log.Printf}
}

// metrics bundles the server's pre-resolved handles; all fields are nil-safe
// no-ops when s.Obs is nil.
type serverMetrics struct {
	clk               obs.Clock
	gets, puts, stats *obs.Counter
	lists, errs       *obs.Counter
	bytesOut, bytesIn *obs.Counter
	hGet, hPut        *obs.Histogram
	gConns            *obs.Gauge
}

func (s *Server) metrics() serverMetrics {
	reg := s.Obs.Metrics()
	return serverMetrics{
		clk:      s.Obs.ClockOrWall(),
		gets:     reg.Counter("objstore_get_total"),
		puts:     reg.Counter("objstore_put_total"),
		stats:    reg.Counter("objstore_stat_total"),
		lists:    reg.Counter("objstore_list_total"),
		errs:     reg.Counter("objstore_errors_total"),
		bytesOut: reg.Counter("objstore_bytes_served_total"),
		bytesIn:  reg.Counter("objstore_bytes_stored_total"),
		hGet:     reg.Histogram("objstore_get_seconds", nil),
		hPut:     reg.Histogram("objstore_put_seconds", nil),
		gConns:   reg.Gauge("objstore_open_conns"),
	}
}

// Serve accepts connections on l until Close. It blocks.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("objstore: server closed")
	}
	s.listener = l
	s.mu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(transport.New(c))
		}()
	}
}

// Close stops accepting and waits for in-flight handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	l := s.listener
	s.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) handle(c *transport.Conn) {
	defer c.Close()
	m0 := s.metrics()
	m0.gConns.Add(1)
	defer m0.gConns.Add(-1)
	slicer, _ := s.backend.(Slicer)
	_, pooled := s.backend.(Pooler)
	for {
		msg, err := c.Recv()
		if err != nil {
			return // connection closed
		}
		// release, when non-nil, returns the reply's data buffer to bufpool
		// after the reply bytes have been flushed to the socket.
		var release []byte
		var reply protocol.Message
		switch m := msg.(type) {
		case protocol.PutReq:
			start := m0.clk.Now()
			resp := protocol.PutResp{}
			if err := s.backend.Put(m.Key, m.Data); err != nil {
				resp.Err = err.Error()
				resp.Code = classify(err)
				m0.errs.Inc()
			} else {
				m0.bytesIn.Add(int64(len(m.Data)))
			}
			// The backend copied (or wrote) the payload; the pooled receive
			// buffer can go back.
			bufpool.Put(m.Data)
			m0.puts.Inc()
			m0.hPut.Observe(m0.clk.Now() - start)
			reply = resp
		case protocol.GetReq:
			start := m0.clk.Now()
			var data []byte
			var err error
			if slicer != nil {
				// Zero-copy: the reply aliases the backend's storage and is
				// written straight to the socket.
				data, err = slicer.GetSlice(m.Key, m.Off, m.Len)
			} else {
				data, err = s.backend.Get(m.Key, m.Off, m.Len)
				if pooled {
					release = data
				}
			}
			resp := protocol.GetResp{Data: data}
			if err != nil {
				resp.Err = err.Error()
				resp.Code = classify(err)
				resp.Data = nil
				m0.errs.Inc()
			} else {
				m0.bytesOut.Add(int64(len(data)))
			}
			m0.gets.Inc()
			m0.hGet.Observe(m0.clk.Now() - start)
			reply = resp
		case protocol.StatReq:
			size, err := s.backend.Stat(m.Key)
			resp := protocol.StatResp{Size: size}
			if err != nil {
				resp.Err = err.Error()
				resp.Code = classify(err)
				m0.errs.Inc()
			}
			m0.stats.Inc()
			reply = resp
		case protocol.ListReq:
			keys, err := s.backend.List(m.Prefix)
			if err != nil {
				m0.errs.Inc()
				reply = protocol.ErrorReply{Err: err.Error()}
			} else {
				reply = protocol.ListResp{Keys: keys}
			}
			m0.lists.Inc()
		default:
			reply = protocol.ErrorReply{Err: fmt.Sprintf("objstore: unexpected message %T", msg)}
		}
		err = c.Send(reply)
		if release != nil {
			bufpool.Put(release)
		}
		if err != nil {
			if s.Logf != nil {
				s.Logf("objstore: reply failed: %v", err)
			}
			return
		}
	}
}

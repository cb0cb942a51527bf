package objstore

import (
	"fmt"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/chunk"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// Client talks to an object-store server over a pool of connections, one
// per retrieval thread, so concurrent range fetches proceed in parallel —
// the paper's multi-threaded data retrieval, which is what lets compute
// instances saturate the available bandwidth to S3.
//
// Chunk payloads returned by Get/GetRange/ReadChunk live in bufpool buffers — the caller owns them and should hand
// them to bufpool.Put when done (see docs/PERFORMANCE.md).
type Client struct {
	network, addr string

	mu    sync.Mutex
	idle  []*transport.Conn
	total int
	max   int
}

// Dial returns a client for the server at addr with at most maxConns pooled
// connections (≤0 defaults to 8).
func Dial(network, addr string, maxConns int) *Client {
	if maxConns <= 0 {
		maxConns = 8
	}
	return &Client{network: network, addr: addr, max: maxConns}
}

func (c *Client) acquire() (*transport.Conn, error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		conn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return conn, nil
	}
	c.total++
	c.mu.Unlock()
	conn, err := transport.Dial(c.network, c.addr)
	if err != nil {
		c.mu.Lock()
		c.total--
		c.mu.Unlock()
	}
	return conn, err
}

func (c *Client) release(conn *transport.Conn, broken bool) {
	if broken {
		conn.Close()
		c.mu.Lock()
		c.total--
		c.mu.Unlock()
		return
	}
	c.mu.Lock()
	if len(c.idle) < c.max {
		c.idle = append(c.idle, conn)
		c.mu.Unlock()
		return
	}
	c.total--
	c.mu.Unlock()
	conn.Close()
}

// roundTrip sends req and returns the reply on a pooled connection.
func (c *Client) roundTrip(req protocol.Message) (protocol.Message, error) {
	conn, err := c.acquire()
	if err != nil {
		return nil, err
	}
	if err := conn.Send(req); err != nil {
		c.release(conn, true)
		return nil, err
	}
	reply, err := conn.Recv()
	c.release(conn, err != nil)
	return reply, err
}

// Close drops all pooled connections.
func (c *Client) Close() {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, conn := range idle {
		conn.Close()
	}
}

// Put stores an object. Failures are *OpError values classifying the cause.
func (c *Client) Put(key string, data []byte) error {
	reply, err := c.roundTrip(protocol.PutReq{Key: key, Data: data})
	if err != nil {
		return transportError("put", key, err)
	}
	resp, ok := reply.(protocol.PutResp)
	if !ok {
		return transportError("put", key, fmt.Errorf("unexpected reply %T", reply))
	}
	if resp.Err != "" {
		return opError("put", key, resp.Err, resp.Code)
	}
	return nil
}

// GetRange fetches length bytes of key starting at off (length < 0 = rest).
// Failures are *OpError values: a dropped connection or a short range read
// is transient (retryable), a missing object or out-of-range request is
// permanent.
func (c *Client) GetRange(key string, off, length int64) ([]byte, error) {
	reply, err := c.roundTrip(protocol.GetReq{Key: key, Off: off, Len: length})
	if err != nil {
		return nil, transportError("get", key, err)
	}
	resp, ok := reply.(protocol.GetResp)
	if !ok {
		return nil, transportError("get", key, fmt.Errorf("unexpected reply %T", reply))
	}
	if resp.Err != "" {
		return nil, opError("get", key, resp.Err, resp.Code)
	}
	if length >= 0 && int64(len(resp.Data)) != length {
		// A short range read: the server accepted the range, so the bytes
		// exist — a retry should succeed.
		n := len(resp.Data)
		bufpool.Put(resp.Data)
		return nil, &OpError{Op: "get", Key: key, Code: protocol.CodeTransient,
			Msg: fmt.Sprintf("short range read: %d of %d bytes", n, length)}
	}
	return resp.Data, nil
}

// Get fetches a whole object (the fault.Store interface used for
// reduction-object checkpoints).
func (c *Client) Get(key string) ([]byte, error) {
	return c.GetRange(key, 0, -1)
}

// Stat returns an object's size. Failures are *OpError values.
func (c *Client) Stat(key string) (int64, error) {
	reply, err := c.roundTrip(protocol.StatReq{Key: key})
	if err != nil {
		return 0, transportError("stat", key, err)
	}
	resp, ok := reply.(protocol.StatResp)
	if !ok {
		return 0, transportError("stat", key, fmt.Errorf("unexpected reply %T", reply))
	}
	if resp.Err != "" {
		return 0, opError("stat", key, resp.Err, resp.Code)
	}
	return resp.Size, nil
}

// List returns keys matching prefix. Failures are *OpError values.
func (c *Client) List(prefix string) ([]string, error) {
	reply, err := c.roundTrip(protocol.ListReq{Prefix: prefix})
	if err != nil {
		return nil, transportError("list", prefix, err)
	}
	switch resp := reply.(type) {
	case protocol.ListResp:
		return resp.Keys, nil
	case protocol.ErrorReply:
		return nil, opError("list", prefix, resp.Err, protocol.CodeTransient)
	default:
		return nil, transportError("list", prefix, fmt.Errorf("unexpected reply %T", reply))
	}
}

// Source adapts the client to chunk.Source for a dataset whose files are
// stored under their index names. Retrieval of one chunk is split across
// Threads parallel range fetches — the multi-threaded retrieval the paper
// uses to exploit fast interconnects.
type Source struct {
	Client  *Client
	Index   *chunk.Index
	Threads int // parallel sub-range fetches per chunk (≤0 ⇒ 1)
}

// ReadChunk implements chunk.Source.
func (s *Source) ReadChunk(ref chunk.Ref) ([]byte, error) {
	if ref.File < 0 || ref.File >= len(s.Index.Files) {
		return nil, fmt.Errorf("%w: file %d", chunk.ErrBounds, ref.File)
	}
	key := s.Index.Files[ref.File].Name
	threads := s.Threads
	if threads <= 1 || ref.Size < int64(threads) {
		return s.Client.GetRange(key, ref.Offset, ref.Size)
	}
	// The chunk buffer and the per-thread sub-range buffers all come from
	// the pool: sub-buffers are returned as soon as their bytes are copied
	// into place, and the assembled chunk is owned by the caller.
	buf := bufpool.Get(int(ref.Size))
	part := (ref.Size + int64(threads) - 1) / int64(threads)
	var wg sync.WaitGroup
	errs := make([]error, threads)
	for t := 0; t < threads; t++ {
		start := int64(t) * part
		if start >= ref.Size {
			break
		}
		end := start + part
		if end > ref.Size {
			end = ref.Size
		}
		wg.Add(1)
		go func(t int, start, end int64) {
			defer wg.Done()
			data, err := s.Client.GetRange(key, ref.Offset+start, end-start)
			if err != nil {
				errs[t] = err
				return
			}
			copy(buf[start:end], data)
			bufpool.Put(data)
		}(t, start, end)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			bufpool.Put(buf)
			return nil, fmt.Errorf("objstore: chunk %v: %w", ref, err)
		}
	}
	return buf, nil
}

var _ chunk.Source = (*Source)(nil)

// Upload pushes every file of a materialized dataset from src into the
// store, plus the serialized index under indexKey if non-empty.
func Upload(c *Client, ix *chunk.Index, src chunk.Source, indexKey string) error {
	for _, f := range ix.Files {
		// Read the whole file as one chunk-spanning sequence.
		data := make([]byte, 0, f.Size)
		for _, ref := range f.Chunks {
			part, err := src.ReadChunk(ref)
			if err != nil {
				return fmt.Errorf("objstore: reading %s: %w", f.Name, err)
			}
			data = append(data, part...)
		}
		if err := c.Put(f.Name, data); err != nil {
			return fmt.Errorf("objstore: uploading %s: %w", f.Name, err)
		}
	}
	if indexKey != "" {
		var buf indexBuffer
		if _, err := ix.WriteTo(&buf); err != nil {
			return err
		}
		if err := c.Put(indexKey, buf.b); err != nil {
			return err
		}
	}
	return nil
}

type indexBuffer struct{ b []byte }

func (w *indexBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

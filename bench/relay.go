package main

import (
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/netem"
)

// countConn counts the bytes read from and written to a connection.
type countConn struct {
	net.Conn
	read, written *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// countWriter counts the bytes written through it.
type countWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// countListener counts the traffic of every connection it accepts.
type countListener struct {
	net.Listener
	read, written *atomic.Int64
}

func (l countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countConn{Conn: c, read: l.read, written: l.written}, nil
}

// relay is a loopback TCP forwarder that shapes both directions of every
// connection through it with netem.Shaper.Wrap — the benchmark's way to put
// a WAN between a master and the head without a hook in cluster.DialAgent.
// up shapes client→target bytes, down shapes target→client bytes; forwarded
// counts the bytes written in either direction, as they are written.
type relay struct {
	l         net.Listener
	target    string
	up, down  *netem.Shaper
	forwarded *atomic.Int64

	mu     sync.Mutex
	conns  []net.Conn
	closed bool
	wg     sync.WaitGroup
}

func newRelay(target string, up, down *netem.Shaper, forwarded *atomic.Int64) (*relay, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{l: l, target: target, up: up, down: down, forwarded: forwarded}
	r.wg.Add(1)
	go r.serve()
	return r, nil
}

func (r *relay) Addr() string { return r.l.Addr().String() }

func (r *relay) serve() {
	defer r.wg.Done()
	for {
		client, err := r.l.Accept()
		if err != nil {
			return // listener closed
		}
		server, err := net.Dial("tcp", r.target)
		if err != nil {
			client.Close()
			continue
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			client.Close()
			server.Close()
			return
		}
		r.conns = append(r.conns, client, server)
		r.mu.Unlock()
		r.wg.Add(2)
		go r.pump(countWriter{r.up.Wrap(server), r.forwarded}, client, client, server)
		go r.pump(countWriter{r.down.Wrap(client), r.forwarded}, server, client, server)
	}
}

// pump copies src to dst until either side ends, then closes both ends so
// the opposite pump and both peers see the connection go away.
func (r *relay) pump(dst io.Writer, src io.Reader, a, b net.Conn) {
	defer r.wg.Done()
	_, _ = io.Copy(dst, src) // either end closing is how a relayed session ends
	a.Close()
	b.Close()
}

// Close stops accepting, drops every relayed connection and waits for the
// pumps to end.
func (r *relay) Close() {
	r.mu.Lock()
	r.closed = true
	conns := r.conns
	r.conns = nil
	r.mu.Unlock()
	r.l.Close()
	for _, c := range conns {
		c.Close()
	}
	r.wg.Wait()
}

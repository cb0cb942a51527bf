// Package transport carries protocol messages over any net.Conn: real TCP
// sockets between machines, loopback sockets in single-host deployments, or
// net.Pipe pairs in tests. Every connection speaks one codec, the
// length-prefixed fixed-layout frames of internal/protocol/binary.go: no
// reflection, bulk payloads written straight from the caller's buffer and
// received into pooled buffers.
//
// Each direction opens with the 4-byte preamble {0x00,'C','B','1'} ahead
// of its first frame. Recv checks for it before the first frame and
// rejects a connection that does not start with it as "not a binary
// session" (wrapping protocol.ErrCorruptFrame), reading nothing beyond those
// four bytes.
package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/protocol"
)

// Codec names a frame encoding. CodecBinary is the only one; NewWith and
// DialWith still take it so the benchmark's call sites compile unchanged,
// and the argument goes when the benchmark is next revised.
type Codec uint8

// CodecBinary is the length-prefixed fixed-layout binary codec.
const CodecBinary Codec = 1

// binaryPreamble opens each direction of every connection.
var binaryPreamble = [4]byte{0x00, 'C', 'B', '1'}

// errNotBinary rejects a peer whose first bytes are not binaryPreamble.
// Preallocated so a hostile connection costs nothing beyond the 4-byte peek.
var errNotBinary = fmt.Errorf("transport: recv: %w: not a binary session", protocol.ErrCorruptFrame)

// Conn is a message-oriented connection. Send and Recv are individually
// goroutine-safe (one lock each), supporting a reader goroutine concurrent
// with writers.
type Conn struct {
	raw net.Conn

	sendMu       sync.Mutex
	bw           *bufio.Writer
	preambleSent bool
	scratch      []byte // reused frame-meta buffer (guarded by sendMu)

	recvMu sync.Mutex
	br     *bufio.Reader
	probed bool    // peer's preamble checked and consumed
	rhdr   [4]byte // reused frame-header read buffer (guarded by recvMu)
	bdec   protocol.BodyDecoder
}

// New wraps a net.Conn in a message connection.
func New(c net.Conn) *Conn {
	return &Conn{raw: c, bw: bufio.NewWriter(c), br: bufio.NewReader(c)}
}

// NewWith is New; the codec argument can only be CodecBinary.
func NewWith(c net.Conn, _ Codec) *Conn { return New(c) }

// Dial connects to a listening peer and wraps the socket.
func Dial(network, addr string) (*Conn, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return New(c), nil
}

// DialWith is Dial; the codec argument can only be CodecBinary.
func DialWith(network, addr string, _ Codec) (*Conn, error) { return Dial(network, addr) }

// Send writes one binary frame: length word, then the reused meta buffer
// (tag + fixed fields), then the bulk payload — which goes to the
// bufio.Writer directly and, when larger than its buffer, straight to the
// socket with no intermediate copy. The first frame is preceded by the
// preamble.
func (c *Conn) Send(m protocol.Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if !c.preambleSent {
		if _, err := c.bw.Write(binaryPreamble[:]); err != nil {
			return fmt.Errorf("transport: send preamble: %w", err)
		}
		c.preambleSent = true
	}
	// The frame header is built in the first 4 bytes of the reused scratch
	// buffer so header+meta go out in one Write with zero allocations.
	meta, payload, err := protocol.AppendBinary(append(c.scratch[:0], 0, 0, 0, 0), m)
	if err != nil {
		return fmt.Errorf("transport: send: %w", err)
	}
	c.scratch = meta[:0] // keep the grown buffer for the next frame
	total := len(meta) - 4 + len(payload)
	if total > protocol.MaxFrameBytes {
		return fmt.Errorf("transport: send: %w: %d bytes", protocol.ErrFrameTooBig, total)
	}
	binary.LittleEndian.PutUint32(meta[:4], uint32(total))
	if _, err := c.bw.Write(meta); err != nil {
		return fmt.Errorf("transport: send: %w", err)
	}
	if len(payload) > 0 {
		if _, err := c.bw.Write(payload); err != nil {
			return fmt.Errorf("transport: send: %w", err)
		}
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("transport: flush: %w", err)
	}
	return nil
}

// Recv blocks for the next message. Bulk payloads are read into bufpool
// buffers; ownership passes to the caller (see docs/PERFORMANCE.md for who
// releases them).
func (c *Conn) Recv() (protocol.Message, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if !c.probed {
		b, err := c.br.Peek(len(binaryPreamble))
		if !bytes.HasPrefix(binaryPreamble[:], b) {
			return nil, errNotBinary
		}
		if err != nil {
			return nil, err
		}
		c.br.Discard(len(binaryPreamble))
		c.probed = true
	}
	if _, err := io.ReadFull(c.br, c.rhdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(c.rhdr[:])
	if n > protocol.MaxFrameBytes {
		return nil, fmt.Errorf("transport: recv: %w: length word %d", protocol.ErrFrameTooBig, n)
	}
	if n < 1 {
		return nil, fmt.Errorf("transport: recv: %w: empty frame", protocol.ErrCorruptFrame)
	}
	tag, err := c.br.ReadByte()
	if err != nil {
		return nil, err
	}
	m, err := c.bdec.Decode(tag, int(n)-1, c.br, bufpool.Get)
	if err != nil {
		return nil, fmt.Errorf("transport: recv: %w", err)
	}
	return m, nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }

// RemoteAddr reports the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.raw.RemoteAddr() }

// Pipe returns a connected in-process pair, for tests and single-process
// deployments.
func Pipe() (*Conn, *Conn) {
	a, b := net.Pipe()
	return New(a), New(b)
}

package transport

import (
	"errors"
	"net"
	"reflect"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/protocol"
)

func codecSampleMessages() []protocol.Message {
	return []protocol.Message{
		protocol.Hello{Site: 1, Cluster: "cloud", Cores: 8, Proto: protocol.ProtoMulti},
		protocol.PollRequest{Site: 1, N: 16},
		protocol.PollReply{Acks: []protocol.JobsDoneAck{{Dup: []int{1, 2, 3}}}},
		protocol.GetReq{Key: "points0000.dat", Off: 12800, Len: 12800},
		protocol.GetResp{Data: []byte("chunk-bytes")},
		protocol.ErrorReply{Err: "nope"},
	}
}

// exchange ping-pongs every sample message a→b→a and checks both hops
// arrive intact. net.Pipe is synchronous, so the two directions must
// alternate (b echoes from its own goroutine) rather than send concurrently.
func exchange(t *testing.T, a, b *Conn) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		for range codecSampleMessages() {
			m, err := b.Recv()
			if err != nil {
				done <- err
				return
			}
			if err := b.Send(m); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for _, want := range codecSampleMessages() {
		if err := a.Send(want); err != nil {
			t.Fatalf("send %T: %v", want, err)
		}
		got, err := a.Recv()
		if err != nil {
			t.Fatalf("recv echo of %T: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip %T:\n got %#v\nwant %#v", want, got, want)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestPipeBinaryBothWays: both ends binary from the first byte, preambles
// consumed transparently in both directions.
func TestPipeBinaryBothWays(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	exchange(t, a, b)
}

// gobHello is the opening of the stream an older master wrote for its
// Hello: a gob type definition of the message envelope.
var gobHello = []byte{
	0x1b, 0x7f, 0x03, 0x01, 0x01, 0x08, 0x65, 0x6e, 0x76, 0x65, 0x6c, 0x6f, 0x70, 0x65, 0x01, 0xff,
	0x80, 0x00, 0x01, 0x01, 0x01, 0x01, 0x4d, 0x01, 0x10, 0x00, 0x00, 0x00, 0x7e, 0xff, 0x80, 0x01,
	0x1d, 0x72, 0x65, 0x70, 0x72, 0x6f, 0x2f, 0x69, 0x6e, 0x74, 0x65, 0x72, 0x6e, 0x61, 0x6c, 0x2f,
	0x70, 0x72, 0x6f, 0x74, 0x6f, 0x63, 0x6f, 0x6c, 0x2e, 0x48, 0x65, 0x6c, 0x6c, 0x6f, 0xff, 0x81,
}

// TestRecvRejectsNonBinarySession: a peer whose first bytes are not the
// preamble gets a typed error from the 4-byte peek alone — no frame is
// decoded, nothing is allocated, and asking again gives the same answer.
func TestRecvRejectsNonBinarySession(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	c := New(server)
	defer c.Close()
	go client.Write(gobHello)
	if m, err := c.Recv(); !errors.Is(err, protocol.ErrCorruptFrame) {
		t.Fatalf("Recv = %#v, %v; want ErrCorruptFrame (not a binary session)", m, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Recv(); !errors.Is(err, protocol.ErrCorruptFrame) {
			t.Fatalf("repeated Recv: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("rejecting a non-binary session allocates %.1f times per Recv", allocs)
	}
}

// TestRecvBinaryRejectsOversizedFrame: a length word beyond MaxFrameBytes
// must error out before any allocation.
func TestRecvBinaryRejectsOversizedFrame(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		// Preamble, then a frame claiming ~1GiB.
		a.raw.Write([]byte{0x00, 'C', 'B', '1', 0xFF, 0xFF, 0xFF, 0x3F})
	}()
	_, err := b.Recv()
	if !errors.Is(err, protocol.ErrFrameTooBig) {
		t.Fatalf("got %v, want ErrFrameTooBig", err)
	}
}

// TestRecvBinaryTruncatedStream: a peer dying mid-frame yields an error, not
// a hang or panic.
func TestRecvBinaryTruncatedStream(t *testing.T) {
	a, b := Pipe()
	defer b.Close()
	go func() {
		a.raw.Write([]byte{0x00, 'C', 'B', '1', 0x40, 0x00, 0x00, 0x00, byte(9)})
		a.Close()
	}()
	if m, err := b.Recv(); err == nil {
		t.Fatalf("decoded %#v from truncated stream", m)
	}
}

// TestPooledPayloadIsPoolable: binary bulk payloads arrive in bufpool-class
// buffers so the consumer's Put actually pools them.
func TestPooledPayloadIsPoolable(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	payload := make([]byte, 12800)
	go a.Send(protocol.GetResp{Data: payload})
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	data := m.(protocol.GetResp).Data
	if len(data) != len(payload) {
		t.Fatalf("payload length %d, want %d", len(data), len(payload))
	}
	_, _, p0, _ := bufpool.Stats()
	bufpool.Put(data)
	_, _, p1, _ := bufpool.Stats()
	if p1 != p0+1 {
		t.Fatalf("received payload was not poolable (cap %d)", cap(data))
	}
}

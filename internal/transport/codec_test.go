package transport

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/protocol"
)

func codecSampleMessages() []protocol.Message {
	return []protocol.Message{
		protocol.Hello{Site: 1, Cluster: "cloud", Cores: 8, Codec: protocol.WireBinary},
		protocol.PollRequest{Site: 1, N: 16},
		protocol.JobsDoneAck{Dup: []int{1, 2, 3}},
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
	a, b := PipeWith(CodecBinary)
	defer a.Close()
	defer b.Close()
	exchange(t, a, b)
	if a.RecvCodec() != CodecBinary || b.RecvCodec() != CodecBinary {
		t.Fatalf("recv codecs: a=%v b=%v, want binary", a.RecvCodec(), b.RecvCodec())
	}
}

// TestGobRecvDetectsBinaryPeer: a gob-default receiver locks onto a
// binary-from-the-start sender via the preamble.
func TestGobRecvDetectsBinaryPeer(t *testing.T) {
	ar, br := pipePair(t, CodecBinary, CodecGob)
	defer ar.Close()
	defer br.Close()
	go func() {
		for _, m := range codecSampleMessages() {
			if err := ar.Send(m); err != nil {
				return
			}
		}
	}()
	for _, want := range codecSampleMessages() {
		got, err := br.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("got %#v want %#v", got, want)
		}
	}
	if br.RecvCodec() != CodecBinary {
		t.Fatalf("receiver stayed on %v after binary preamble", br.RecvCodec())
	}
}

// TestGobBothWays: the compat path must keep working untouched.
func TestGobBothWays(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	exchange(t, a, b)
	if a.RecvCodec() != CodecGob || b.RecvCodec() != CodecGob {
		t.Fatalf("recv codecs: a=%v b=%v, want gob", a.RecvCodec(), b.RecvCodec())
	}
}

// TestMidStreamUpgrade models the head↔master negotiation: the session
// starts in gob, exchanges Hello/JobSpec, then both directions upgrade to
// binary with no preamble.
func TestMidStreamUpgrade(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	errc := make(chan error, 1)
	go func() { // "head" side
		defer close(errc)
		m, err := b.Recv()
		if err != nil {
			errc <- err
			return
		}
		hello, ok := m.(protocol.Hello)
		if !ok || hello.Codec != protocol.WireBinary {
			errc <- errors.New("bad hello")
			return
		}
		if err := b.Send(protocol.JobSpec{App: "knn", Codec: protocol.WireBinary}); err != nil {
			errc <- err
			return
		}
		b.UpgradeSend(CodecBinary)
		b.UpgradeRecv(CodecBinary)
		// Post-upgrade traffic, both directions.
		m, err = b.Recv()
		if err != nil {
			errc <- err
			return
		}
		if _, ok := m.(protocol.PollRequest); !ok {
			errc <- errors.New("bad post-upgrade request")
			return
		}
		errc <- b.Send(protocol.PollReply{Wait: true})
	}()

	// "master" side.
	if err := a.Send(protocol.Hello{Site: 1, Codec: protocol.WireBinary}); err != nil {
		t.Fatal(err)
	}
	m, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if spec := m.(protocol.JobSpec); spec.Codec != protocol.WireBinary {
		t.Fatalf("head selected codec %d", spec.Codec)
	}
	a.UpgradeSend(CodecBinary)
	a.UpgradeRecv(CodecBinary)
	if err := a.Send(protocol.PollRequest{Site: 1, N: 4}); err != nil {
		t.Fatal(err)
	}
	m, err = a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if g := m.(protocol.PollReply); !g.Wait {
		t.Fatalf("post-upgrade grant corrupted: %#v", g)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestServerMirrorsClientCodec models the object-store server: it receives
// with auto-detection and mirrors the detected codec onto its send side, so
// one server port speaks both codecs per-connection.
func TestServerMirrorsClientCodec(t *testing.T) {
	for _, clientCodec := range []Codec{CodecGob, CodecBinary} {
		t.Run(clientCodec.String(), func(t *testing.T) {
			client, server := pipePair(t, clientCodec, CodecGob)
			defer client.Close()
			defer server.Close()
			go func() {
				m, err := server.Recv()
				if err != nil {
					return
				}
				server.UpgradeSend(server.RecvCodec())
				if _, ok := m.(protocol.GetReq); ok {
					server.Send(protocol.GetResp{Data: []byte("payload")})
				}
			}()
			if err := client.Send(protocol.GetReq{Key: "k"}); err != nil {
				t.Fatal(err)
			}
			m, err := client.Recv()
			if err != nil {
				t.Fatal(err)
			}
			resp, ok := m.(protocol.GetResp)
			if !ok || string(resp.Data) != "payload" {
				t.Fatalf("got %#v", m)
			}
			if client.RecvCodec() != clientCodec {
				t.Fatalf("client locked onto %v, want %v", client.RecvCodec(), clientCodec)
			}
		})
	}
}

// TestRecvBinaryRejectsOversizedFrame: a length word beyond MaxFrameBytes
// must error out before any allocation.
func TestRecvBinaryRejectsOversizedFrame(t *testing.T) {
	a, b := PipeWith(CodecBinary)
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
	a, b := PipeWith(CodecBinary)
	defer b.Close()
	go func() {
		a.raw.Write([]byte{0x00, 'C', 'B', '1', 0x40, 0x00, 0x00, 0x00, byte(9)})
		a.Close()
	}()
	if m, err := b.Recv(); err == nil {
		t.Fatalf("decoded %#v from truncated stream", m)
	}
}

// pipePair wires two Conns over net.Pipe with different send codecs.
func pipePair(t *testing.T, codecA, codecB Codec) (*Conn, *Conn) {
	t.Helper()
	a, b := PipeWith(codecA)
	// PipeWith gives both ends codecA; rebuild b's end with codecB while
	// keeping the same underlying pipe.
	nb := NewWith(b.raw, codecB)
	return a, nb
}

// TestPooledPayloadIsPoolable: binary bulk payloads arrive in bufpool-class
// buffers so the consumer's Put actually pools them.
func TestPooledPayloadIsPoolable(t *testing.T) {
	a, b := PipeWith(CodecBinary)
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

package transport

import (
	"testing"

	"repro/internal/bufpool"
	"repro/internal/protocol"
)

// Message-path benchmarks: the head↔master control channel carries small
// structured messages; the object-store data path carries large GetResp
// payloads. Both shapes matter.

func benchRoundTrip(b *testing.B, req, expectEcho protocol.Message) {
	a, peer := Pipe()
	defer a.Close()
	defer peer.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := peer.Recv()
			if err != nil {
				return
			}
			if err := peer.Send(m); err != nil {
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(req); err != nil {
			b.Fatal(err)
		}
		if _, err := a.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	a.Close()
	<-done
	_ = expectEcho
}

func BenchmarkRoundTripControl(b *testing.B) {
	benchRoundTrip(b, protocol.PollRequest{Site: 1, N: 8}, nil)
}

func BenchmarkRoundTripChunkPayload(b *testing.B) {
	payload := make([]byte, 1<<20)
	b.SetBytes(int64(len(payload)))
	benchRoundTrip(b, protocol.GetResp{Data: payload}, nil)
}

func BenchmarkSendOnly(b *testing.B) {
	a, peer := Pipe()
	defer a.Close()
	defer peer.Close()
	go func() {
		for {
			if _, err := peer.Recv(); err != nil {
				return
			}
		}
	}()
	msg := protocol.JobsDone{Site: 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWire_ChunkRoundtrip is the PR's acceptance benchmark: one
// 12.8 MB chunk (the experiments' standard chunk size) echoed over a
// connection pair, gob vs binary. The binary codec must deliver ≥2× the
// throughput at ≥10× fewer allocations per op. Received payloads are
// returned to bufpool on both ends, so the binary numbers reflect the
// steady-state pooled data plane.
func BenchmarkWire_ChunkRoundtrip(b *testing.B) {
	const chunkBytes = 12_800_000
	for _, codec := range []Codec{CodecGob, CodecBinary} {
		b.Run(codec.String(), func(b *testing.B) {
			benchChunkRoundTrip(b, codec, chunkBytes)
		})
	}
}

func benchChunkRoundTrip(b *testing.B, codec Codec, chunkBytes int) {
	a, peer := PipeWith(codec)
	defer a.Close()
	defer peer.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := peer.Recv()
			if err != nil {
				return
			}
			if err := peer.Send(m); err != nil {
				return
			}
			if resp, ok := m.(protocol.GetResp); ok {
				bufpool.Put(resp.Data)
			}
		}
	}()
	payload := bufpool.Get(chunkBytes)
	defer bufpool.Put(payload)
	req := protocol.GetResp{Data: payload}
	b.SetBytes(2 * int64(chunkBytes)) // the payload crosses the pipe twice
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(req); err != nil {
			b.Fatal(err)
		}
		m, err := a.Recv()
		if err != nil {
			b.Fatal(err)
		}
		if resp, ok := m.(protocol.GetResp); ok {
			bufpool.Put(resp.Data)
		}
	}
	b.StopTimer()
	a.Close()
	<-done
}

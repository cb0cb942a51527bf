package transport

import (
	"net"
	"sync"
	"testing"

	"repro/internal/jobs"
	"repro/internal/protocol"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	msgs := []protocol.Message{
		protocol.Hello{Site: 1, Cluster: "cloud", Cores: 16},
		protocol.PollRequest{Site: 1, N: 8},
		protocol.PollReply{Queries: []protocol.QueryJobs{{Jobs: []jobs.Job{{ID: 3, Site: 0}}}}},
		protocol.ReductionResult{Site: 0, Object: []byte{1, 2, 3}, Processing: 42},
		protocol.CheckpointSave{Site: 1, Seq: 2, Data: []byte{9}},
		protocol.GetReq{Key: "k", Off: 10, Len: 20},
		protocol.GetResp{Data: []byte("payload")},
		protocol.ErrorReply{Err: "boom"},
	}
	done := make(chan error, 1)
	go func() {
		for _, m := range msgs {
			if err := a.Send(m); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i, want := range msgs {
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		switch w := want.(type) {
		case protocol.Hello:
			if got.(protocol.Hello) != w {
				t.Errorf("msg %d: %+v != %+v", i, got, w)
			}
		case protocol.PollReply:
			g := got.(protocol.PollReply).Queries[0]
			if len(g.Jobs) != 1 || g.Jobs[0].ID != 3 {
				t.Errorf("msg %d: %+v", i, g)
			}
		case protocol.GetResp:
			if string(got.(protocol.GetResp).Data) != "payload" {
				t.Errorf("msg %d: %+v", i, got)
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("send: %v", err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srvDone := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			srvDone <- err
			return
		}
		tc := New(c)
		defer tc.Close()
		m, err := tc.Recv()
		if err != nil {
			srvDone <- err
			return
		}
		srvDone <- tc.Send(m) // echo
	}()
	cl, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Send(protocol.StatReq{Key: "x"}); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.(protocol.StatReq).Key != "x" {
		t.Errorf("echo = %+v", got)
	}
	if err := <-srvDone; err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSenders(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	const n = 50
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := a.Send(protocol.PollRequest{Site: i, N: 1}); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}(i)
	}
	seen := make(map[int]bool)
	for i := 0; i < n; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		seen[m.(protocol.PollRequest).Site] = true
	}
	wg.Wait()
	if len(seen) != n {
		t.Errorf("received %d distinct messages, want %d", len(seen), n)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("tcp", "127.0.0.1:1"); err == nil {
		t.Error("dialing a closed port succeeded")
	}
}

func TestRecvOnCorruptStream(t *testing.T) {
	// A peer writing garbage must surface an error, not panic or hang.
	client, server := net.Pipe()
	tc := New(client)
	defer tc.Close()
	go func() {
		server.Write([]byte("this is definitely not a binary session"))
		server.Close()
	}()
	if _, err := tc.Recv(); err == nil {
		t.Error("garbage stream decoded successfully")
	}
}

func TestRecvAfterPeerClose(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	b.Close()
	if _, err := a.Recv(); err == nil {
		t.Error("Recv on closed peer succeeded")
	}
	if err := a.Send(protocol.PollRequest{}); err == nil {
		t.Error("Send on closed peer succeeded")
	}
}

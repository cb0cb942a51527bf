package head

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// sumReducer sums little-endian uint32 units; Decode rejects wrong sizes.
type sumReducer struct{}

type sumObj struct{ total uint64 }

func (sumReducer) NewObject() core.Object { return &sumObj{} }
func (sumReducer) LocalReduce(obj core.Object, unit []byte) error {
	obj.(*sumObj).total += uint64(binary.LittleEndian.Uint32(unit))
	return nil
}
func (sumReducer) GlobalReduce(dst, src core.Object) error {
	dst.(*sumObj).total += src.(*sumObj).total
	return nil
}
func (sumReducer) Encode(obj core.Object) ([]byte, error) {
	return binary.LittleEndian.AppendUint64(nil, obj.(*sumObj).total), nil
}
func (sumReducer) Decode(data []byte) (core.Object, error) {
	if len(data) != 8 {
		return nil, fmt.Errorf("want 8 bytes, got %d", len(data))
	}
	return &sumObj{total: binary.LittleEndian.Uint64(data)}, nil
}

func encodeSum(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

// testHead returns a head expecting the given number of clusters with one
// all-masters-rule query (ID 0) admitted over a 10-job pool.
func testHead(t *testing.T, clusters int) (*Head, *Query) {
	t.Helper()
	ix, err := chunk.Layout("h", 100, 4, 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := jobs.NewPool(ix, jobs.Placement{0, 1}, jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := protocol.JobSpec{App: "sum", UnitSize: 4}
	if err := EncodeIndexSpec(&spec, ix); err != nil {
		t.Fatal(err)
	}
	h, err := New(Config{ExpectClusters: clusters, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	q, err := h.Admit(QueryConfig{Pool: pool, Reducer: sumReducer{}, Spec: spec, ExpectAll: true})
	if err != nil {
		t.Fatal(err)
	}
	return h, q
}

// register opens a session for each site, failing the test on error.
func register(t *testing.T, h *Head, sites ...int) {
	t.Helper()
	for _, site := range sites {
		if _, err := h.RegisterSite(protocol.Hello{Site: site, Cluster: fmt.Sprint("c", site), Proto: protocol.ProtoMulti}); err != nil {
			t.Fatal(err)
		}
	}
}

// reqJobs flattens a Poll reply's grants for the single-query tests, and
// returns the reply for its notices.
func reqJobs(h *Head, site, n int) ([]jobs.Job, protocol.PollReply, error) {
	rep, err := poll(h, site, n)
	if err != nil {
		return nil, rep, err
	}
	var js []jobs.Job
	for _, qj := range rep.Queries {
		js = append(js, qj.Jobs...)
	}
	return js, rep, nil
}

func TestNewValidation(t *testing.T) {
	ix, _ := chunk.Layout("h", 10, 4, 10, 5)
	pool, _ := jobs.NewPool(ix, jobs.Placement{0}, jobs.Options{})
	h, err := New(Config{ExpectClusters: 1, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatalf("head awaiting Admit rejected: %v", err)
	}
	if _, err := h.Admit(QueryConfig{Pool: pool}); err == nil {
		t.Error("nil reducer accepted")
	}
	if _, err := h.Admit(QueryConfig{Reducer: sumReducer{}}); err == nil {
		t.Error("nil pool accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("zero ExpectClusters accepted")
	}
}

func TestRegisterSpecAndLimit(t *testing.T) {
	h, q := testHead(t, 1)
	register(t, h, 0)
	spec, err := h.QuerySpec(0, q.ID())
	if err != nil {
		t.Fatal(err)
	}
	if spec.App != "sum" || len(spec.Index) == 0 {
		t.Errorf("spec = %+v", spec)
	}
	if _, err := h.RegisterSite(protocol.Hello{Site: 1, Cluster: "b", Proto: protocol.ProtoMulti}); err == nil {
		t.Error("over-registration accepted")
	}
}

// TestSubmitResultBlocksUntilAll: under the all-masters rule the query's
// result stays blocked — Wait does not return — until every expected cluster
// has submitted, however early the first object arrives; the submits
// themselves return at once.
func TestSubmitResultBlocksUntilAll(t *testing.T) {
	h, q := testHead(t, 2)
	register(t, h, 0, 1)
	if err := h.SubmitQueryResult(protocol.ReductionResult{Site: 0, Object: encodeSum(40)}); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	select {
	case <-q.Done():
		t.Fatal("query finished before the second cluster reported")
	default:
	}
	if err := h.SubmitQueryResult(protocol.ReductionResult{Site: 1, Object: encodeSum(2)}); err != nil {
		t.Fatal(err)
	}
	obj, reports, grTime, err := q.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*sumObj).total; got != 42 {
		t.Errorf("final = %d, want 42", got)
	}
	if len(reports) != 2 {
		t.Errorf("reports = %d", len(reports))
	}
	if grTime < 0 {
		t.Errorf("grTime = %v", grTime)
	}
}

func TestSubmitResultDecodeErrorFailsRun(t *testing.T) {
	h, q := testHead(t, 2)
	register(t, h, 0, 1)
	if err := h.SubmitQueryResult(protocol.ReductionResult{Site: 0, Object: encodeSum(1)}); err != nil {
		t.Fatal(err)
	}
	if err := h.SubmitQueryResult(protocol.ReductionResult{Site: 1, Object: []byte("bad")}); err == nil {
		t.Error("bad object accepted")
	}
	if _, _, _, err := q.Wait(context.Background()); err == nil {
		t.Error("Wait did not surface failure")
	}
}

func TestRequestAndCompleteJobs(t *testing.T) {
	h, q := testHead(t, 1)
	js, rep, _ := reqJobs(h, 0, 3)
	if len(js) != 3 {
		t.Fatalf("granted %d", len(js))
	}
	if len(rep.Done) != 0 {
		t.Errorf("Done = %v on a grant from an undrained pool", rep.Done)
	}
	dups, err := commitJobs(h, q.ID(), 0, js)
	if err != nil {
		t.Fatal(err)
	}
	if len(dups) != 0 {
		t.Errorf("first completion flagged dups %v", dups)
	}
	// A second completion of the same jobs is deduplicated, not an error:
	// that is how speculative copies are absorbed.
	dups, err = commitJobs(h, q.ID(), 0, js)
	if err != nil {
		t.Fatal(err)
	}
	if len(dups) != len(js) {
		t.Errorf("double completion: %d dups, want %d", len(dups), len(js))
	}
}

// TestHandleConnProtocol drives a full master session over an in-process
// pipe: Hello → SiteSpec, QuerySpecRequest → JobSpec, polls for work and
// polls that commit it and ask for nothing until the query appears in Done,
// then ReductionResult → ResultAck; the final object is read at the head.
func TestHandleConnProtocol(t *testing.T) {
	h, q := testHead(t, 1)
	a, b := transport.Pipe()
	go h.HandleConn(b)
	defer a.Close()

	if err := a.Send(protocol.Hello{Site: 0, Cluster: "pipe", Cores: 2, Proto: protocol.ProtoMulti}); err != nil {
		t.Fatal(err)
	}
	reply, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reply.(protocol.SiteSpec); !ok {
		t.Fatalf("Hello reply = %T", reply)
	}
	if err := a.Send(protocol.QuerySpecRequest{Site: 0, Query: 0}); err != nil {
		t.Fatal(err)
	}
	reply, err = a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	spec, ok := reply.(protocol.JobSpec)
	if !ok {
		t.Fatalf("QuerySpecRequest reply = %T", reply)
	}
	if spec.App != "sum" {
		t.Errorf("spec = %+v", spec)
	}
	// Drain the pool, then wait for the query to show up in Done.
	granted := 0
	for done := false; !done; {
		if err := a.Send(protocol.PollRequest{Site: 0, N: 4}); err != nil {
			t.Fatal(err)
		}
		reply, err := a.Recv()
		if err != nil {
			t.Fatal(err)
		}
		rep, ok := reply.(protocol.PollReply)
		if !ok {
			t.Fatalf("PollRequest reply = %T", reply)
		}
		for _, id := range rep.Done {
			if id == 0 {
				done = true
			}
		}
		for _, qj := range rep.Queries {
			granted += len(qj.Jobs)
			commit := protocol.PollRequest{Site: 0, Commits: []protocol.JobsDone{{Site: 0, Query: qj.Query, Jobs: qj.Jobs}}}
			if err := a.Send(commit); err != nil {
				t.Fatal(err)
			}
			reply, err = a.Recv()
			if err != nil {
				t.Fatal(err)
			}
			ack, ok := reply.(protocol.PollReply)
			if !ok {
				t.Fatalf("commit reply = %T", reply)
			}
			if want := []protocol.JobsDoneAck{{}}; !reflect.DeepEqual(ack, protocol.PollReply{Acks: want}) {
				t.Fatalf("commit reply = %+v, want the one clean ack alone", ack)
			}
		}
	}
	if granted != 10 {
		t.Errorf("granted %d jobs, want 10", granted)
	}
	if err := a.Send(protocol.ReductionResult{Site: 0, Query: 0, Object: encodeSum(7)}); err != nil {
		t.Fatal(err)
	}
	reply, err = a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := reply.(protocol.ResultAck); !ok || ack.Err != "" {
		t.Fatalf("ReductionResult reply = %#v", reply)
	}
	obj, _, _, err := q.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if obj.(*sumObj).total != 7 {
		t.Errorf("total = %d", obj.(*sumObj).total)
	}
}

// TestHandleConnRejectsProtoSingle: a Hello from a single-query master (no
// Proto field, so Proto 0) is answered with a version-mismatch ErrorReply,
// not a SiteSpec, and does not register the site.
func TestHandleConnRejectsProtoSingle(t *testing.T) {
	h, _ := testHead(t, 1)
	defer h.Shutdown()
	a, b := transport.Pipe()
	done := make(chan struct{})
	go func() { h.HandleConn(b); close(done) }()
	defer a.Close()
	if err := a.Send(protocol.Hello{Site: 0, Cluster: "old"}); err != nil {
		t.Fatal(err)
	}
	reply, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	er, ok := reply.(protocol.ErrorReply)
	if !ok || er.Code != protocol.CodeVersionMismatch {
		t.Fatalf("reply = %#v, want ErrorReply coded CodeVersionMismatch", reply)
	}
	if want := fmt.Sprintf("version 0, this head %d", protocol.ProtoMulti); !strings.Contains(er.Err, want) {
		t.Errorf("error %q does not mention %q", er.Err, want)
	}
	<-done
	// The rejected master must not have been registered: a ProtoMulti
	// session can still claim the head's single slot.
	if _, err := h.RegisterSite(protocol.Hello{Site: 0, Cluster: "new", Proto: protocol.ProtoMulti}); err != nil {
		t.Errorf("multi registration after rejected single Hello: %v", err)
	}
}

// gobHello is the opening of the stream a master on the retired gob codec
// wrote for its Hello: a gob type definition of the message envelope.
var gobHello = []byte{
	0x1b, 0x7f, 0x03, 0x01, 0x01, 0x08, 0x65, 0x6e, 0x76, 0x65, 0x6c, 0x6f, 0x70, 0x65, 0x01, 0xff,
	0x80, 0x00, 0x01, 0x01, 0x01, 0x01, 0x4d, 0x01, 0x10, 0x00, 0x00, 0x00, 0x7e, 0xff, 0x80, 0x01,
	0x1d, 0x72, 0x65, 0x70, 0x72, 0x6f, 0x2f, 0x69, 0x6e, 0x74, 0x65, 0x72, 0x6e, 0x61, 0x6c, 0x2f,
	0x70, 0x72, 0x6f, 0x74, 0x6f, 0x63, 0x6f, 0x6c, 0x2e, 0x48, 0x65, 0x6c, 0x6c, 0x6f, 0xff, 0x81,
}

// TestHandleConnGobOptIn: there is no gob opt-in any more. A master that
// opens its session in gob is dropped by the head without a reply and
// without registering, and the head's single slot stays free.
func TestHandleConnGobOptIn(t *testing.T) {
	h, _ := testHead(t, 1)
	defer h.Shutdown()
	client, server := net.Pipe()
	defer client.Close()
	done := make(chan struct{})
	go func() { h.HandleConn(transport.New(server)); close(done) }()
	go client.Write(gobHello)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("HandleConn kept a gob session open")
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := client.Read(make([]byte, 64)); n != 0 || !errors.Is(err, io.EOF) {
		t.Errorf("gob master read %d bytes, %v; want no reply and EOF", n, err)
	}
	if _, err := h.RegisterSite(protocol.Hello{Site: 0, Cluster: "bin", Proto: protocol.ProtoMulti}); err != nil {
		t.Errorf("registration after refused gob session: %v", err)
	}
}

// TestHandleConnRefusesOtherVersions: a Hello of any Proto but ProtoMulti
// — 0 is the retired single-query dialect, 3 the layout before commits
// rode the poll, 5 the one before the poll's byte floor, 6 the one with a
// commit frame of its own, 7 the one whose JobSpec carried the unit-group
// budget — is answered with
// an ErrorReply coded CodeVersionMismatch, which a remote master rebuilds
// (CodeError, as RemoteAgent does) into ErrVersionMismatch; the session
// ends without registering the site.
func TestHandleConnRefusesOtherVersions(t *testing.T) {
	h, _ := testHead(t, 1)
	defer h.Shutdown()
	for _, proto := range []int{0, 1, 3, 4, 5, 6, 7, protocol.ProtoMulti + 1} {
		a, b := transport.Pipe()
		done := make(chan struct{})
		go func() { h.HandleConn(b); close(done) }()
		if err := a.Send(protocol.Hello{Site: 0, Cluster: "other", Proto: proto}); err != nil {
			t.Fatal(err)
		}
		reply, err := a.Recv()
		if err != nil {
			t.Fatalf("proto %d: %v", proto, err)
		}
		er, ok := reply.(protocol.ErrorReply)
		if !ok || er.Code != protocol.CodeVersionMismatch {
			t.Fatalf("proto %d: reply = %#v, want ErrorReply coded CodeVersionMismatch", proto, reply)
		}
		if err := CodeError(er.Code, er.Err); !errors.Is(err, ErrVersionMismatch) {
			t.Errorf("proto %d: rebuilt error %v is not ErrVersionMismatch", proto, err)
		}
		<-done
		a.Close()
	}
	// No refused master took the head's single slot.
	if _, err := h.RegisterSite(protocol.Hello{Site: 0, Cluster: "new", Proto: protocol.ProtoMulti}); err != nil {
		t.Errorf("registration after refused Hellos: %v", err)
	}
}

// TestHandleConnRefusesRetiredCommitFrame: a registered master that sends
// a frame under the retired JobsDone tag 5 ends its session: the head's
// decoder answers it with ErrUnknownType, no panic, and the fail-fast head
// fails the run with that typed error as the lost master's cause.
func TestHandleConnRefusesRetiredCommitFrame(t *testing.T) {
	h, q := testHead(t, 1)
	client, server := net.Pipe()
	defer client.Close()
	done := make(chan struct{})
	go func() { h.HandleConn(transport.New(server)); close(done) }()
	a := transport.New(client)
	if err := a.Send(protocol.Hello{Site: 0, Cluster: "v6", Proto: protocol.ProtoMulti}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recv(); err != nil {
		t.Fatal(err)
	}
	// A v6 JobsDone: tag 5, Site, Query, no jobs, a zero trace.
	body := append([]byte{5}, make([]byte, 8+8+4+16)...)
	frame := append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
	go client.Write(frame)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("HandleConn kept the session open after a tag-5 frame")
	}
	if _, _, _, err := q.Wait(context.Background()); !errors.Is(err, protocol.ErrUnknownType) {
		t.Errorf("run error %v, want the lost master's ErrUnknownType", err)
	}
}

func TestHandleConnUnexpectedMessage(t *testing.T) {
	h, _ := testHead(t, 1)
	a, b := transport.Pipe()
	done := make(chan struct{})
	go func() { h.HandleConn(b); close(done) }()
	defer a.Close()
	if err := a.Send(protocol.GetReq{Key: "nope"}); err != nil {
		t.Fatal(err)
	}
	reply, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reply.(protocol.ErrorReply); !ok {
		t.Errorf("reply = %T, want ErrorReply", reply)
	}
	<-done // handler must close the session
}

func TestLostMasterFailsRun(t *testing.T) {
	h, q := testHead(t, 2)
	a, b := transport.Pipe()
	go h.HandleConn(b)
	if err := a.Send(protocol.Hello{Site: 0, Cluster: "doomed", Proto: protocol.ProtoMulti}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recv(); err != nil {
		t.Fatal(err)
	}
	a.Close() // master dies mid-run
	if _, _, _, err := q.Wait(context.Background()); err == nil {
		t.Error("run did not fail after losing a registered master")
	}
}

func TestServeOverTCP(t *testing.T) {
	h, q := testHead(t, 2)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve(l)
	defer h.Close()

	runMaster := func(site int, amount uint64) error {
		c, err := transport.Dial("tcp", l.Addr().String())
		if err != nil {
			return err
		}
		defer c.Close()
		if err := c.Send(protocol.Hello{Site: site, Cluster: fmt.Sprint(site), Proto: protocol.ProtoMulti}); err != nil {
			return err
		}
		reply, err := c.Recv()
		if err != nil {
			return err
		}
		if _, ok := reply.(protocol.SiteSpec); !ok {
			return fmt.Errorf("Hello reply = %T", reply)
		}
		for done := false; !done; {
			if err := c.Send(protocol.PollRequest{Site: site, N: 2}); err != nil {
				return err
			}
			reply, err := c.Recv()
			if err != nil {
				return err
			}
			rep, ok := reply.(protocol.PollReply)
			if !ok {
				return fmt.Errorf("PollRequest reply = %T", reply)
			}
			for _, id := range rep.Done {
				if id == 0 {
					done = true
				}
			}
			for _, qj := range rep.Queries {
				commit := protocol.PollRequest{Site: site, Commits: []protocol.JobsDone{{Site: site, Query: qj.Query, Jobs: qj.Jobs}}}
				if err := c.Send(commit); err != nil {
					return err
				}
				reply, err = c.Recv()
				if err != nil {
					return err
				}
				if ack, ok := reply.(protocol.PollReply); !ok || len(ack.Acks) != 1 || ack.Acks[0].Err != "" {
					return fmt.Errorf("commit reply = %#v", reply)
				}
			}
			if len(rep.Queries) == 0 && !done {
				time.Sleep(time.Millisecond) // the other master is still committing
			}
		}
		if err := c.Send(protocol.ReductionResult{Site: site, Query: 0, Object: encodeSum(amount)}); err != nil {
			return err
		}
		reply, err = c.Recv()
		if err != nil {
			return err
		}
		if ack, ok := reply.(protocol.ResultAck); !ok || ack.Err != "" {
			return fmt.Errorf("ReductionResult reply = %#v", reply)
		}
		// Hold the session until the query is sealed: a fail-fast head takes
		// a master hanging up mid-query for a lost site.
		<-q.Done()
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = runMaster(i, uint64(10*(i+1)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("master %d: %v", i, err)
		}
	}
	obj, _, _, err := q.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if obj.(*sumObj).total != 30 {
		t.Errorf("total = %d, want 30", obj.(*sumObj).total)
	}
}

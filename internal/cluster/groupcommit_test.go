package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/chunk"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/protocol"
)

// ackedJobs holds the job IDs the head has acknowledged as first commits in
// the running TestGroupCommitFramesAndFoldOrder; ackReducer checks every
// fold against it.
var ackedJobs sync.Map

// ackReducer sums units like sumReducer, and each unit carries its chunk's
// job ID: folding a unit whose job the head has not yet acknowledged is a
// commit-before-fold violation.
type ackReducer struct{ sumReducer }

var foldedEarly atomic.Int64

func (r ackReducer) LocalReduce(obj core.Object, unit []byte) error {
	if _, ok := ackedJobs.Load(int(binary.LittleEndian.Uint32(unit))); !ok {
		foldedEarly.Add(1)
	}
	return r.sumReducer.LocalReduce(obj, unit)
}

func init() {
	core.Register("cluster-test-acked", func([]byte) (core.Reducer, error) { return ackReducer{}, nil })
}

// idDataset lays out files × chunks jobs of 100 units each, every unit of a
// chunk holding that chunk's job ID, and returns the expected sum.
func idDataset(t *testing.T, files, chunks int) (*chunk.Index, *chunk.MemSource, uint64) {
	t.Helper()
	ix, err := chunk.Layout("ids", int64(files*chunks*100), 4, chunks*100, 100)
	if err != nil {
		t.Fatal(err)
	}
	src := chunk.NewMemSource(ix)
	var want uint64
	id := 0
	for _, f := range ix.Files {
		buf := make([]byte, f.Size)
		for _, ref := range f.Chunks {
			for off := ref.Offset; off < ref.Offset+ref.Size; off += 4 {
				binary.LittleEndian.PutUint32(buf[off:], uint32(id))
				want += uint64(id)
			}
			id++
		}
		if err := src.WriteFile(f.Name, buf); err != nil {
			t.Fatal(err)
		}
	}
	return ix, src, want
}

// countingClient records every grant and every JobsDone frame passing
// between an agent and its head, and marks acknowledged first commits in
// ackedJobs. Each commit sits on the wire for delay.
type countingClient struct {
	QueryClient
	delay time.Duration

	mu      sync.Mutex
	frames  int
	granted map[int]int // job ID → grants
	commits map[int]int // job ID → JobsDone frames naming it
}

func (c *countingClient) Poll(req protocol.PollRequest) (protocol.PollReply, error) {
	rep, err := c.QueryClient.Poll(req)
	c.mu.Lock()
	for _, qj := range rep.Queries {
		for _, j := range qj.Jobs {
			c.granted[j.ID]++
		}
	}
	c.mu.Unlock()
	return rep, err
}

func (c *countingClient) CompleteJobs(done protocol.JobsDone) ([]int, error) {
	time.Sleep(c.delay)
	dups, err := c.QueryClient.CompleteJobs(done)
	c.mu.Lock()
	c.frames++
	for _, j := range done.Jobs {
		c.commits[j.ID]++
	}
	c.mu.Unlock()
	if err == nil {
		for _, j := range done.Jobs {
			if !containsID(dups, j.ID) {
				ackedJobs.Store(j.ID, true)
			}
		}
	}
	return dups, err
}

func containsID(ids []int, id int) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// TestGroupCommitFramesAndFoldOrder: an agent over an instant source with a
// commit that takes a moment on the wire groups its commits — fewer JobsDone
// frames than jobs — while every granted job is committed in exactly one
// frame and no job is folded before the head acknowledged it.
func TestGroupCommitFramesAndFoldOrder(t *testing.T) {
	ix, src, want := idDataset(t, 4, 40) // 160 jobs
	ackedJobs.Range(func(k, _ any) bool { ackedJobs.Delete(k); return true })
	foldedEarly.Store(0)
	h := multiTestHead(t, 1, config.Tuning{}, nil)
	pool, err := jobs.NewPool(ix, jobs.SplitByFraction(len(ix.Files), 1, 0, 1), jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := sumSpec(t, ix)
	spec.App = "cluster-test-acked"
	q, err := h.Admit(head.QueryConfig{Pool: pool, Reducer: sumReducer{}, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	client := &countingClient{QueryClient: InProcAgent{Head: h}, delay: 200 * time.Microsecond,
		granted: make(map[int]int), commits: make(map[int]int)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- RunAgent(ctx, AgentConfig{
			Site: 0, Name: "grouped", Cores: 8, RetrievalThreads: 4,
			Sources: map[int]chunk.Source{0: src},
			Head:    client,
		})
	}()
	obj, _, _, err := q.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*sumObj).total; got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
	h.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("agent exit: %v", err)
	}
	client.mu.Lock()
	defer client.mu.Unlock()
	if len(client.granted) != ix.NumChunks() {
		t.Errorf("%d distinct jobs granted, want %d", len(client.granted), ix.NumChunks())
	}
	for id, n := range client.granted {
		if c := client.commits[id]; c != n {
			t.Errorf("job %d granted %d times, in %d JobsDone frames", id, n, c)
		}
	}
	if client.frames >= ix.NumChunks() {
		t.Errorf("%d JobsDone frames for %d jobs: commits were not grouped", client.frames, ix.NumChunks())
	}
	if n := foldedEarly.Load(); n > 0 {
		t.Errorf("%d units folded before their job's commit was acknowledged", n)
	}
	t.Logf("%d jobs in %d frames", ix.NumChunks(), client.frames)
}

// trippingSource fails its nth read when fail is set, and otherwise calls
// cancel at that read. Later reads are slow, so the batch gives up while
// other lanes are still retrieving.
type trippingSource struct {
	chunk.Source
	n      int32
	reads  atomic.Int32
	fail   bool
	cancel func()
}

func (s *trippingSource) ReadChunk(ref chunk.Ref) ([]byte, error) {
	switch k := s.reads.Add(1); {
	case k == s.n && s.fail:
		return nil, fmt.Errorf("%w: injected", chunk.ErrBounds)
	case k == s.n:
		s.cancel()
	case k > s.n:
		time.Sleep(5 * time.Millisecond)
	}
	return s.Source.ReadChunk(ref)
}

// TestGroupCommitReclaimsBuffers: a retrieval error and a context cancel in
// the middle of a grant batch both end the agent with every pooled buffer
// it retrieved returned exactly once — folded, or put back uncommitted.
func TestGroupCommitReclaimsBuffers(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail bool
		want error
	}{
		{name: "retrieval-error", fail: true, want: chunk.ErrBounds},
		{name: "cancel", want: context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix, src, _ := buildDataset(t, 8000, 1000, 100) // 80 jobs
			h := multiTestHead(t, 1, config.Tuning{}, nil)
			defer h.Shutdown()
			admitSum(t, h, ix, 0)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// The 11th read falls in the second grant batch of eight.
			source := &trippingSource{Source: src, n: 11, fail: tc.fail, cancel: cancel}
			gets0, _, puts0, _ := bufpool.Stats()
			err := RunAgent(ctx, AgentConfig{
				Site: 0, Name: "tripped", Cores: 8, RetrievalThreads: 4,
				Sources: map[int]chunk.Source{0: source},
				Head:    InProcAgent{Head: h},
				Retry:   Retry{Attempts: 1},
			})
			if !errors.Is(err, tc.want) {
				t.Fatalf("agent exit: %v, want %v", err, tc.want)
			}
			gets1, _, puts1, _ := bufpool.Stats()
			if got, put := gets1-gets0, puts1-puts0; got != put {
				t.Errorf("bufpool: %d gets, %d puts during the run", got, put)
			}
		})
	}
}

// gatedClient holds the agent's first JobsDone on the wire until release is
// closed, and closes entered when that commit arrives.
type gatedClient struct {
	QueryClient
	once             sync.Once
	entered, release chan struct{}
}

func (c *gatedClient) CompleteJobs(done protocol.JobsDone) ([]int, error) {
	c.once.Do(func() {
		close(c.entered)
		<-c.release
	})
	return c.QueryClient.CompleteJobs(done)
}

// TestGroupCommitBoundsHeldChunks: while a commit is stuck on the wire and
// nothing has been folded, the lanes have retrieved RetrievalThreads chunks
// and no more, though the grant batch holds max(Cores, 4) = 16 jobs.
func TestGroupCommitBoundsHeldChunks(t *testing.T) {
	ix, src, want := buildDataset(t, 8000, 1000, 100) // 80 jobs
	h := multiTestHead(t, 1, config.Tuning{}, nil)
	defer h.Shutdown()
	q := admitSum(t, h, ix, 0)
	var read atomic.Int64
	held := 2 * ix.Files[0].Chunks[0].Size // RetrievalThreads chunks of bytes
	client := &gatedClient{QueryClient: InProcAgent{Head: h},
		entered: make(chan struct{}), release: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- RunAgent(ctx, AgentConfig{
			Site: 0, Name: "gated", Cores: 16, RetrievalThreads: 2,
			Sources: map[int]chunk.Source{0: countingSource{Source: src, n: &read}},
			Head:    client,
		})
	}()
	<-client.entered
	for deadline := time.Now().Add(5 * time.Second); read.Load() < held && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // room for a lane that runs ahead
	if n := read.Load(); n != held {
		t.Errorf("%d bytes retrieved while the first commit was on the wire, want RetrievalThreads chunks = %d", n, held)
	}
	close(client.release)
	obj, _, _, err := q.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*sumObj).total; got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
	h.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("agent exit: %v", err)
	}
}

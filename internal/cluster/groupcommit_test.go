package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
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
	"repro/internal/transport"
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

// countingClient records every grant and every commit passing between an
// agent and its head — on a commit poll of its own (a mid-batch group, sent
// and read as both QueryClients do) or riding a poll for work — and marks acknowledged first commits in ackedJobs before the
// agent sees the ack. Each mid-batch commit sits on the wire for delay.
type countingClient struct {
	QueryClient
	delay time.Duration

	mu          sync.Mutex
	commitPolls int         // polls that carry commits and ask for nothing
	loud        int         // commit polls answered with more than acks
	polled      int         // commits carried by polls for work
	granted     map[int]int // job ID → grants
	commits     map[int]int // job ID → commits naming it, by either path
}

func newCountingClient(inner QueryClient, delay time.Duration) *countingClient {
	return &countingClient{QueryClient: inner, delay: delay,
		granted: make(map[int]int), commits: make(map[int]int)}
}

func (c *countingClient) Poll(req protocol.PollRequest) (protocol.PollReply, error) {
	rep, err := c.QueryClient.Poll(req)
	c.mu.Lock()
	if req.N == 0 && req.Bytes == 0 && len(req.Commits) > 0 {
		c.commitPolls++
		if len(rep.Queries)+len(rep.Done)+len(rep.Dropped) > 0 || rep.Drain || rep.Shutdown {
			c.loud++
		}
	} else {
		c.polled += len(req.Commits)
	}
	for _, d := range req.Commits {
		for _, j := range d.Jobs {
			c.commits[j.ID]++
		}
	}
	for _, qj := range rep.Queries {
		for _, j := range qj.Jobs {
			c.granted[j.ID]++
		}
	}
	c.mu.Unlock()
	if err == nil {
		for i, d := range req.Commits {
			if i < len(rep.Acks) && rep.Acks[i].Err == "" {
				markAcked(d.Jobs, rep.Acks[i].Dup)
			}
		}
	}
	return rep, err
}

func (c *countingClient) CompleteJobs(done protocol.JobsDone) ([]int, error) {
	time.Sleep(c.delay)
	return head.CommitAck(c.Poll(protocol.PollRequest{Site: done.Site, Commits: []protocol.JobsDone{done}}))
}

// markAcked records the first commits among js in ackedJobs.
func markAcked(js []jobs.Job, dups []int) {
	for _, j := range js {
		if !containsID(dups, j.ID) {
			ackedJobs.Store(j.ID, true)
		}
	}
}

// checkCommits fails t unless every job c saw granted was committed, on a
// commit poll or riding a poll for work, exactly as often as it was
// granted, and no unit was folded before its job's commit was acknowledged.
func (c *countingClient) checkCommits(t *testing.T, jobs int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.granted) != jobs {
		t.Errorf("%d distinct jobs granted, want %d", len(c.granted), jobs)
	}
	for id, n := range c.granted {
		if got := c.commits[id]; got != n {
			t.Errorf("job %d granted %d times, committed %d times", id, n, got)
		}
	}
	if n := foldedEarly.Load(); n > 0 {
		t.Errorf("%d units folded before their job's commit was acknowledged", n)
	}
}

// resetAcked forgets the acknowledgements of an earlier test.
func resetAcked() {
	ackedJobs.Range(func(k, _ any) bool { ackedJobs.Delete(k); return true })
	foldedEarly.Store(0)
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
// commit that takes a moment on the wire groups its commits — fewer commit
// polls than jobs, and each batch's last group rides the next poll for work
// — while every granted job is committed exactly once, on a commit poll or
// riding a poll for work, no commit poll is answered with more than its
// acks, and no job is folded before the head acknowledged it. With the
// default G a batch of these 400-byte jobs (20, the head's cap) may be
// retrieved whole before its first group forms and then rides the poll in
// one commit; with G of one chunk a batch is 8 jobs worked 4 ahead, so each
// batch's first group commits on a commit poll of its own.
func TestGroupCommitFramesAndFoldOrder(t *testing.T) {
	for _, tc := range []struct {
		name       string
		groupBytes int
	}{
		{"default G", 0},
		{"G of one chunk", 400},
	} {
		t.Run(tc.name, func(t *testing.T) { framesAndFoldOrder(t, tc.groupBytes) })
	}
}

func framesAndFoldOrder(t *testing.T, groupBytes int) {
	ix, src, want := idDataset(t, 4, 40) // 160 jobs
	resetAcked()
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
	client := newCountingClient(InProcAgent{Head: h}, 200*time.Microsecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- RunAgent(ctx, AgentConfig{
			Site: 0, Name: "grouped", Cores: 8, RetrievalThreads: 4,
			Tuning:  config.Tuning{GroupBytes: groupBytes},
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
	client.checkCommits(t, ix.NumChunks())
	client.mu.Lock()
	defer client.mu.Unlock()
	if client.commitPolls >= ix.NumChunks() {
		t.Errorf("%d commit polls for %d jobs: commits were not grouped", client.commitPolls, ix.NumChunks())
	}
	if groupBytes > 0 && client.commitPolls == 0 {
		t.Error("no commit poll: batches of 8 worked 4 ahead commit their first group mid-batch")
	}
	if client.polled == 0 {
		t.Error("no commit rode a poll for work")
	}
	if client.loud > 0 {
		t.Errorf("%d commit polls answered with more than their acks", client.loud)
	}
	t.Logf("%d jobs in %d commit polls and %d commits riding polls for work", ix.NumChunks(), client.commitPolls, client.polled)
}

// TestPollCommitSingleQueryBatches: when every group of a single-query
// batch is its last — here each batch is one job over a MemSource — the
// agent sends no commit poll at all: each job commits on the poll for work
// after its batch, which also brings the query's Done, and no unit is
// folded before its ack.
func TestPollCommitSingleQueryBatches(t *testing.T) {
	ix, src, want := idDataset(t, 1, 1)
	resetAcked()
	h := multiTestHead(t, 1, config.Tuning{}, nil)
	defer h.Shutdown()
	client := newCountingClient(InProcAgent{Head: h}, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- RunAgent(ctx, AgentConfig{
			Site: 0, Name: "single", Cores: 4,
			Sources: map[int]chunk.Source{0: src},
			Head:    client,
		})
	}()
	const queries = 5
	for range queries { // one at a time: every batch is one query's one job
		pool, err := jobs.NewPool(ix, jobs.Placement{0}, jobs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		spec := sumSpec(t, ix)
		spec.App = "cluster-test-acked"
		q, err := h.Admit(head.QueryConfig{Pool: pool, Reducer: sumReducer{}, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		obj, _, _, err := q.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := obj.(*sumObj).total; got != want {
			t.Errorf("query %d: sum = %d, want %d", q.ID(), got, want)
		}
		if n := foldedEarly.Load(); n > 0 {
			t.Errorf("query %d: %d units folded before their job's commit was acknowledged", q.ID(), n)
		}
		resetAcked() // the next query's job has the same ID
	}
	h.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("agent exit: %v", err)
	}
	client.checkCommits(t, ix.NumChunks())
	client.mu.Lock()
	defer client.mu.Unlock()
	if client.commitPolls != 0 || client.polled != queries {
		t.Errorf("%d commit polls and %d commits riding polls for work for %d one-job batches, want 0 and %d",
			client.commitPolls, client.polled, queries, queries)
	}
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
			// The 11th read opens the second grant batch of ten: the head caps
			// the 8 × 256 KiB byte floor at 1/8 of the query's 32 000 bytes.
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

// gate holds one call on the wire: the call closes in on arrival and waits
// for the test to close out.
type gate struct {
	once    sync.Once
	in, out chan struct{}
}

func newGate() *gate { return &gate{in: make(chan struct{}), out: make(chan struct{})} }

// hold blocks the first caller until the gate opens; later callers pass.
func (g *gate) hold() {
	g.once.Do(func() {
		close(g.in)
		<-g.out
	})
}

// await fails t unless the gated call has arrived.
func (g *gate) await(t *testing.T, what string) {
	t.Helper()
	select {
	case <-g.in:
	case <-time.After(5 * time.Second):
		t.Fatalf("no %s reached the head", what)
	}
}

// gatedClient holds on the wire the agent's first mid-batch commit for the
// last query of its first grant batch, and its first poll for work that
// carries commits.
// It records the first batch's jobs per query and that poll's commits.
type gatedClient struct {
	QueryClient
	done, poll *gate

	mu      sync.Mutex
	batch   []protocol.QueryJobs
	commits []protocol.JobsDone
}

func (c *gatedClient) Poll(req protocol.PollRequest) (protocol.PollReply, error) {
	if len(req.Commits) > 0 {
		c.mu.Lock()
		if c.commits == nil {
			c.commits = slices.Clone(req.Commits)
		}
		c.mu.Unlock()
		c.poll.hold()
	}
	rep, err := c.QueryClient.Poll(req)
	c.mu.Lock()
	if c.batch == nil && len(rep.Queries) > 0 {
		c.batch = rep.Queries
	}
	c.mu.Unlock()
	return rep, err
}

func (c *gatedClient) CompleteJobs(done protocol.JobsDone) ([]int, error) {
	c.mu.Lock()
	last := done.Query == c.batch[len(c.batch)-1].Query
	c.mu.Unlock()
	if last {
		c.done.hold()
	}
	return c.QueryClient.CompleteJobs(done)
}

// TestGroupCommitBoundsHeldChunks: an agent with Cores 16 asks for a batch
// of 16 jobs and 16 unit groups (G) of bytes, and works each query's part
// of it with RetrievalThreads 2 lanes at most max(2 chunks, 2 × G) bytes
// ahead of the settled jobs. While the last query's first mid-batch commit
// is stuck on the wire the lanes have retrieved every earlier query's part of the
// batch plus exactly that many bytes, and no more. When the poll that
// commits the batch's kept groups is on the wire, the whole batch has been
// retrieved, it carries one group per query, none larger than the same
// bound, at most the batch in all, and the query's result is exact. With
// chunks of G or more the bounds are the job-count ones: a batch of 16
// jobs, and 2 chunks ahead.
func TestGroupCommitBoundsHeldChunks(t *testing.T) {
	for _, queries := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d-query batch", queries), func(t *testing.T) {
			for _, tc := range []struct {
				name       string
				groupBytes int // over 400-byte chunks
			}{
				{"chunks under G", 1000},
				{"chunks of G", 400},
				{"chunks over G", 200},
			} {
				t.Run(tc.name, func(t *testing.T) { heldBoundsRun(t, tc.groupBytes, queries) })
			}
		})
	}
}

// heldBoundsRun is one TestGroupCommitBoundsHeldChunks case: a site of 400
// 400-byte jobs per query, unit-group budget g. The head's cap on a byte
// floor (1/8 of the admitted work per site) is 20 KB, above every floor here.
func heldBoundsRun(t *testing.T, g, queries int) {
	const cores, lanes, size, perQuery = 16, 2, 400, 400
	ix, src, want := buildDataset(t, perQuery*size/4, 1000, size/4)
	h := multiTestHead(t, 1, config.Tuning{}, nil)
	defer h.Shutdown()
	qs := make([]*head.Query, queries)
	for i := range qs {
		qs[i] = admitSum(t, h, ix, 0)
	}
	var read atomic.Int64
	client := &gatedClient{QueryClient: InProcAgent{Head: h}, done: newGate(), poll: newGate()}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- RunAgent(ctx, AgentConfig{
			Site: 0, Name: "gated", Cores: cores, RetrievalThreads: lanes,
			Tuning:  config.Tuning{GroupBytes: g},
			Sources: map[int]chunk.Source{0: countingSource{Source: src, n: &read}},
			Head:    client,
		})
	}()
	// settled waits until want bytes were read, then leaves room for a
	// lane that runs ahead, and reports the bytes read.
	settled := func(want int64) int64 {
		for deadline := time.Now().Add(5 * time.Second); read.Load() < want && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		return read.Load()
	}
	// ahead is how many chunks a query's lanes may have out beyond its
	// settled jobs: max(RetrievalThreads chunks, RetrievalThreads × G bytes).
	ahead := max(lanes, lanes*g/size)

	client.done.await(t, "mid-batch commit")
	client.mu.Lock()
	batch := client.batch
	client.mu.Unlock()
	if len(batch) != queries {
		t.Fatalf("first batch serves %d queries, want %d", len(batch), queries)
	}
	granted, earlier := 0, 0
	for i, qj := range batch {
		if granted += len(qj.Jobs); i < queries-1 {
			earlier += len(qj.Jobs)
		}
	}
	if want := min(queries*perQuery, max(cores, cores*g/size)); granted != want {
		t.Errorf("first batch of %d jobs, want min(all %d, max(Cores %d, Cores × G / chunk %d)) = %d",
			granted, queries*perQuery, cores, cores*g/size, want)
	}
	if want := int64(earlier+ahead) * size; settled(want) != want {
		t.Errorf("%d bytes retrieved while the last query's first commit was on the wire, want "+
			"%d earlier jobs + %d chunks ahead = %d", read.Load(), earlier, ahead, want)
	}
	close(client.done.out)

	client.poll.await(t, "poll carrying commits")
	if want := int64(granted) * size; settled(want) != want {
		t.Errorf("%d bytes retrieved while the batch's commits rode the poll, want the whole batch = %d", read.Load(), want)
	}
	client.mu.Lock()
	kept := 0
	for _, c := range client.commits {
		kept += len(c.Jobs)
		if len(c.Jobs) == 0 || len(c.Jobs) > ahead {
			t.Errorf("query %d keeps a group of %d jobs, want 1..%d", c.Query, len(c.Jobs), ahead)
		}
	}
	if len(client.commits) != queries || kept > granted {
		t.Errorf("the poll carries %d groups of %d jobs in all, want %d groups and at most the batch's %d jobs",
			len(client.commits), kept, queries, granted)
	}
	client.mu.Unlock()
	close(client.poll.out)

	for _, q := range qs {
		obj, _, _, err := q.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := obj.(*sumObj).total; got != want {
			t.Errorf("query %d: sum = %d, want %d", q.ID(), got, want)
		}
	}
	h.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("agent exit: %v", err)
	}
}

// grantCounter counts the polls whose replies carried grants.
type grantCounter struct {
	QueryClient
	granting atomic.Int64
}

func (c *grantCounter) Poll(req protocol.PollRequest) (protocol.PollReply, error) {
	rep, err := c.QueryClient.Poll(req)
	if len(rep.Queries) > 0 {
		c.granting.Add(1)
	}
	return rep, err
}

// TestByteBatchesAmortisePolls: over 4 KiB jobs each poll round trip
// fetches at least one unit group (G, 256 KiB by default) per core, not
// max(Cores, 4) jobs, so the polls that carry grants number at most
// ⌈jobs × 4 KiB / (max(Cores, 4) × G)⌉ plus one per site and query for the
// batches a drained pool cuts short — 10 here, where 4-job batches took
// 512. The admitted work is 8 floors, so the head's cap of 1/8 of it per
// site leaves the floor whole.
func TestByteBatchesAmortisePolls(t *testing.T) {
	const cores, queries, sites, perQuery, chunkBytes = 4, 2, 1, 1024, 4 << 10
	ix, src, want := buildDataset(t, perQuery*chunkBytes/4, 64<<10, chunkBytes/4)
	h := multiTestHead(t, sites, config.Tuning{}, nil)
	defer h.Shutdown()
	qs := make([]*head.Query, queries)
	for i := range qs {
		qs[i] = admitSum(t, h, ix, 0)
	}
	client := &grantCounter{QueryClient: InProcAgent{Head: h}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- RunAgent(ctx, AgentConfig{
			Site: 0, Name: "amortised", Cores: cores,
			Sources: map[int]chunk.Source{0: src},
			Head:    client,
		})
	}()
	for _, q := range qs {
		obj, _, _, err := q.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := obj.(*sumObj).total; got != want {
			t.Errorf("query %d: sum = %d, want %d", q.ID(), got, want)
		}
	}
	h.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("agent exit: %v", err)
	}
	total := int64(queries * perQuery * chunkBytes)
	floor := int64(max(cores, 4) * core.DefaultGroupBytes)
	bound := (total+floor-1)/floor + sites*queries
	got := client.granting.Load()
	t.Logf("%d polls carried grants, bound %d", got, bound)
	if got > bound {
		t.Errorf("%d polls carried grants for %d jobs of %d bytes, want at most ⌈%d / %d⌉ + %d = %d",
			got, queries*perQuery, chunkBytes, total, floor, sites*queries, bound)
	}
}

// TestCommitRoundTripAllocs pins the allocations of one mid-batch commit
// of one job from a RemoteAgent to a head over transport.Pipe: the commit
// poll's box and its decoded commit list and jobs at the head, and the
// reply's box and decoded acks at the agent. The agent's request list and
// the head's ack list are reused, and neither side's Send boxes its message
// on the heap.
func TestCommitRoundTripAllocs(t *testing.T) {
	ix, _, _ := buildDataset(t, 400*25, 1000, 25) // 400 jobs
	h := multiTestHead(t, 1, config.Tuning{}, nil)
	defer h.Shutdown()
	q := admitSum(t, h, ix, 0)
	a, b := transport.Pipe()
	go h.HandleConn(b)
	r := NewRemoteAgent(a)
	defer r.Close()
	if _, err := r.RegisterSite(protocol.Hello{Site: 0, Cluster: "c"}); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Poll(protocol.PollRequest{Site: 0, N: ix.NumChunks()})
	if err != nil || len(rep.Queries) != 1 || len(rep.Queries[0].Jobs) != ix.NumChunks() {
		t.Fatalf("grant: %d queries, %v", len(rep.Queries), err)
	}
	held := rep.Queries[0].Jobs
	one := make([]jobs.Job, 1) // reused, as the agent reuses its group's jobs
	allocs := testing.AllocsPerRun(200, func() {
		one[0], held = held[0], held[1:]
		if dups, err := r.CompleteJobs(protocol.JobsDone{Site: 0, Query: q.ID(), Jobs: one}); err != nil || len(dups) > 0 {
			t.Fatalf("commit: dups %v, %v", dups, err)
		}
	})
	if allocs > 5 {
		t.Errorf("one commit round trip: %.1f allocs, want ≤ 5", allocs)
	}
}

// TestInProcCommitAllocs pins the allocations of one mid-batch commit of
// one job from an InProcAgent to its head: the commit poll's request and
// ack lists stay on the agent's stack, so a commit allocates nothing (the
// parent allocated the head's ack list on every commit).
func TestInProcCommitAllocs(t *testing.T) {
	ix, _, _ := buildDataset(t, 400*25, 1000, 25) // 400 jobs
	h := multiTestHead(t, 1, config.Tuning{}, nil)
	defer h.Shutdown()
	q := admitSum(t, h, ix, 0)
	c := InProcAgent{Head: h}
	if _, err := c.RegisterSite(protocol.Hello{Site: 0, Cluster: "c", Proto: protocol.ProtoMulti}); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Poll(protocol.PollRequest{Site: 0, N: ix.NumChunks()})
	if err != nil || len(rep.Queries) != 1 || len(rep.Queries[0].Jobs) != ix.NumChunks() {
		t.Fatalf("grant: %d queries, %v", len(rep.Queries), err)
	}
	held := rep.Queries[0].Jobs
	one := make([]jobs.Job, 1) // reused, as the agent reuses its group's jobs
	allocs := testing.AllocsPerRun(200, func() {
		one[0], held = held[0], held[1:]
		if dups, err := c.CompleteJobs(protocol.JobsDone{Site: 0, Query: q.ID(), Jobs: one}); err != nil || len(dups) > 0 {
			t.Fatalf("commit: dups %v, %v", dups, err)
		}
	})
	if allocs > 0 {
		t.Errorf("one in-process commit: %.1f allocs, want 0", allocs)
	}
}

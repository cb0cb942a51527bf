package head

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/chunk"
	"repro/internal/jobs"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// TestPollOnceAllocs: with tracing and logging off, a poll that grants jobs
// across three queries allocates at most the fair share's grant list, one
// backing array for the granted jobs and the reply's per-query list.
func TestPollOnceAllocs(t *testing.T) {
	h, err := New(Config{ExpectClusters: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Shutdown)
	if _, err := h.RegisterSite(protocol.Hello{Site: 0, Cluster: "c0", Proto: protocol.ProtoMulti}); err != nil {
		t.Fatal(err)
	}
	ix, err := chunk.Layout("grant", 4096, 4, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 3; q++ {
		admitSumQuery(t, h, ix, jobs.Placement{0, 0, 0, 0}, 1)
	}
	for _, bytes := range []int64{0, 64} { // 4 jobs; a byte floor of 16 jobs
		allocs := testing.AllocsPerRun(200, func() {
			rep, _, err := h.pollOnce(0, 4, bytes, true)
			if err != nil || len(rep.Queries) != 3 {
				t.Fatalf("poll granted %d queries (err %v), want 3", len(rep.Queries), err)
			}
		})
		t.Logf("bytes %d: %.2f allocations per granting poll", bytes, allocs)
		if allocs > 3 {
			t.Errorf("bytes %d: pollOnce allocates %.2f times per granting poll, want at most 3", bytes, allocs)
		}
	}
}

// hostileJobs are commits a master cannot have been granted: IDs outside
// the pool's 0..N-1.
func hostileJobs(n int) []jobs.Job {
	return []jobs.Job{{ID: -1}, {ID: n}, {ID: 1 << 40}}
}

// TestCompleteHostileJobIDs: a commit naming a job ID outside the pool is
// refused with the pool's "not outstanding" error, one ID at a time, and
// the query carries on: its real jobs still commit and it finishes.
func TestCompleteHostileJobIDs(t *testing.T) {
	h, _ := parkHead(t, 1, Config{})
	ix := parkIndex(t)
	q := admitSumQuery(t, h, ix, jobs.Placement{0, 0}, 1)
	for _, j := range hostileJobs(ix.NumChunks()) {
		dups, err := commitJobs(h, q.ID(), 0, []jobs.Job{j})
		if err == nil || !strings.Contains(err.Error(), "not outstanding") || len(dups) != 0 {
			t.Errorf("commit of job %d: dups=%v err=%v, want a not-outstanding error", j.ID, dups, err)
		}
	}
	for done := 0; done < ix.NumChunks(); {
		qjs := takeAll(t, h, 0)
		commitAll(t, h, 0, qjs)
		for _, qj := range qjs {
			done += len(qj.Jobs)
		}
	}
	if err := h.SubmitQueryResult(protocol.ReductionResult{Site: 0, Query: q.ID(), Object: encodeSum(1)}); err != nil {
		t.Fatal(err)
	}
	<-q.Done()
}

// TestPollCommitHostileJobIDs: the same IDs riding a poll are refused in
// their commit's ack, and the poll is still answered with grants.
func TestPollCommitHostileJobIDs(t *testing.T) {
	h, _ := parkHead(t, 1, Config{})
	ix := parkIndex(t)
	q := admitSumQuery(t, h, ix, jobs.Placement{0, 0}, 1)
	var commits []protocol.JobsDone
	for _, j := range hostileJobs(ix.NumChunks()) {
		commits = append(commits, done(0, q.ID(), []jobs.Job{j}))
	}
	rep, err := h.PollFrom(ride(0, commits...))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Acks) != len(commits) {
		t.Fatalf("%d acks for %d commits", len(rep.Acks), len(commits))
	}
	for i, a := range rep.Acks {
		if !strings.Contains(a.Err, "not outstanding") || len(a.Dup) != 0 {
			t.Errorf("ack %d = %#v, want a not-outstanding error", i, a)
		}
	}
	if len(rep.Queries) != 1 || len(rep.Queries[0].Jobs) != 4 {
		t.Errorf("grants = %#v, want 4 jobs of query %d", rep.Queries, q.ID())
	}
}

// TestPollRefusesNegativeAsk: a poll asking for a negative number of jobs
// or bytes is refused whole with ErrBadRequest, before any commit it
// carries is applied; over the wire the refusal is an ErrorReply coded
// CodeBadRequest, the session stays open, and a well-formed poll on it is
// then answered with grants.
func TestPollRefusesNegativeAsk(t *testing.T) {
	h, _ := parkHead(t, 1, Config{})
	ix := parkIndex(t)
	q := admitSumQuery(t, h, ix, jobs.Placement{0, 0}, 1)
	first, err := poll(h, 0, 2)
	if err != nil || len(first.Queries) != 1 {
		t.Fatalf("first poll: %#v, %v", first, err)
	}
	held := first.Queries[0].Jobs
	for _, req := range []protocol.PollRequest{
		{Site: 0, N: -1},
		{Site: 0, N: 4, Bytes: -1},
		{Site: 0, N: -4, Bytes: -4096, Commits: []protocol.JobsDone{done(0, q.ID(), held)}},
	} {
		rep, err := h.PollFrom(req)
		if !errors.Is(err, ErrBadRequest) || ErrCode(err) != protocol.CodeBadRequest {
			t.Errorf("N %d Bytes %d: err %v (code %d), want ErrBadRequest coded CodeBadRequest",
				req.N, req.Bytes, err, ErrCode(err))
		}
		if len(rep.Queries) != 0 || len(rep.Acks) != 0 {
			t.Errorf("N %d Bytes %d: refused poll answered %#v", req.N, req.Bytes, rep)
		}
	}
	if dups, err := commitJobs(h, q.ID(), 0, held); err != nil || len(dups) != 0 {
		t.Errorf("commit after the refused polls: dups %v, err %v; want a first commit", dups, err)
	}

	a, b := transport.Pipe()
	served := make(chan struct{})
	go func() { h.HandleConn(b); close(served) }()
	defer func() { a.Close(); <-served }()
	for _, m := range []protocol.PollRequest{{Site: 0, N: 4, Bytes: -1}, {Site: 0, N: 4}} {
		if err := a.Send(m); err != nil {
			t.Fatal(err)
		}
		reply, err := a.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Bytes < 0 {
			er, ok := reply.(protocol.ErrorReply)
			if !ok || !errors.Is(CodeError(er.Code, er.Err), ErrBadRequest) {
				t.Errorf("negative ask over the wire: reply %#v, want ErrorReply rebuilding ErrBadRequest", reply)
			}
		} else if rep, ok := reply.(protocol.PollReply); !ok || len(rep.Queries) != 1 {
			t.Errorf("poll after the refused one: reply %#v, want grants", reply)
		}
	}
}

// TestPollByteFloorCapped: a poll's byte floor grants at most 1/8 of the
// admitted work per registered site, so a floor far above a small dataset
// still leaves work for every site; N jobs are granted whatever the cap.
func TestPollByteFloorCapped(t *testing.T) {
	ix, err := chunk.Layout("cap", 256, 4, 64, 4) // 64 jobs of 16 bytes
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sites, n int
		want     int
	}{
		{sites: 1, n: 1, want: 8}, // 1024 bytes / 8 = 128 bytes
		{sites: 2, n: 1, want: 4}, // 1024 / 16 = 64 bytes
		{sites: 2, n: 6, want: 6}, // N binds
	} {
		h, _ := parkHead(t, tc.sites, Config{})
		admitSumQuery(t, h, ix, jobs.Placement{0, 0, 0, 0}, 1)
		rep, err := h.PollFrom(protocol.PollRequest{Site: 0, N: tc.n, Bytes: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(rep.Queries[0].Jobs); got != tc.want {
			t.Errorf("%d sites, N %d, floor 1 GiB over 1 KiB admitted: %d jobs granted, want %d",
				tc.sites, tc.n, got, tc.want)
		}
	}
}

package head

import (
	"strings"
	"testing"

	"repro/internal/chunk"
	"repro/internal/jobs"
	"repro/internal/protocol"
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
	allocs := testing.AllocsPerRun(200, func() {
		rep, _, err := h.pollOnce(0, 4, true)
		if err != nil || len(rep.Queries) != 3 {
			t.Fatalf("poll granted %d queries (err %v), want 3", len(rep.Queries), err)
		}
	})
	t.Logf("%.2f allocations per granting poll", allocs)
	if allocs > 3 {
		t.Errorf("pollOnce allocates %.2f times per granting poll, want at most 3", allocs)
	}
}

// hostileJobs are commits a master cannot have been granted: IDs outside
// the pool's 0..N-1.
func hostileJobs(n int) []jobs.Job {
	return []jobs.Job{{ID: -1}, {ID: n}, {ID: 1 << 40}}
}

// TestCompleteHostileJobIDs: a JobsDone naming a job ID outside the pool is
// refused with the pool's "not outstanding" error, one ID at a time, and
// the query carries on: its real jobs still commit and it finishes.
func TestCompleteHostileJobIDs(t *testing.T) {
	h, _ := parkHead(t, 1, Config{})
	ix := parkIndex(t)
	q := admitSumQuery(t, h, ix, jobs.Placement{0, 0}, 1)
	for _, j := range hostileJobs(ix.NumChunks()) {
		dups, err := h.CompleteQueryJobs(q.ID(), 0, []jobs.Job{j})
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

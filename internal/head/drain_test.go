package head

import (
	"testing"

	"repro/internal/chunk"
	"repro/internal/jobs"
	"repro/internal/protocol"
)

// drainHead builds a dynamic-sites head with one admitted query and a
// registered static site 0 plus burst site 1000.
func drainHead(t *testing.T) (*Head, *Query) {
	t.Helper()
	h, err := New(Config{ExpectClusters: 1,
		DynamicSites: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for site, name := range map[int]string{0: "local", 1000: "burst-1000"} {
		if _, err := h.RegisterSite(protocol.Hello{Site: site, Cluster: name, Proto: protocol.ProtoMulti}); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := chunk.Layout("d", 400, 4, 100, 20) // 20 jobs
	if err != nil {
		t.Fatal(err)
	}
	q := admitSumQuery(t, h, ix, jobs.Placement{0, 0, 0, 0}, 1)
	return h, q
}

func TestDrainSiteUnregistered(t *testing.T) {
	h, _ := drainHead(t)
	if _, err := h.DrainSite(42); err == nil {
		t.Fatal("drain of an unregistered site accepted")
	}
}

func TestDrainNoObligationsDepartsImmediately(t *testing.T) {
	h, _ := drainHead(t)
	ch, err := h.DrainSite(1000)
	if err != nil {
		t.Fatal(err)
	}
	// Never polled, never committed: the first drain poll says leave.
	rep, err := h.Poll(1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drain || len(rep.Queries) != 0 {
		t.Fatalf("reply = %+v, want immediate Drain with no grants", rep)
	}
	select {
	case <-ch:
	default:
		t.Fatal("drain channel not closed after departure")
	}
	for _, s := range h.Sites() {
		if s == 1000 {
			t.Fatal("departed site still registered")
		}
	}
}

func TestDrainProtocolCommitSubmitDepart(t *testing.T) {
	h, q := drainHead(t)
	rep, err := h.Poll(1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Queries) != 1 || len(rep.Queries[0].Jobs) == 0 {
		t.Fatalf("no jobs granted: %+v", rep)
	}
	held := rep.Queries[0].Jobs

	ch1, err := h.DrainSite(1000)
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := h.DrainSite(1000) // idempotent: same pending drain
	if err != nil {
		t.Fatal(err)
	}
	if ch1 != ch2 {
		t.Error("second DrainSite returned a different channel")
	}

	// Outstanding copies: no new work, keep polling.
	rep, err = h.Poll(1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Drain || !rep.Wait || len(rep.Queries) != 0 {
		t.Fatalf("draining poll with held jobs = %+v, want Wait only", rep)
	}

	if _, err := h.CompleteQueryJobs(q.ID(), 1000, held); err != nil {
		t.Fatal(err)
	}
	// Commits are in: the site now owes its reduction object.
	rep, err = h.Poll(1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Drain || rep.Wait || len(rep.Done) != 1 || rep.Done[0] != q.ID() {
		t.Fatalf("draining poll after commits = %+v, want Done=[%d]", rep, q.ID())
	}
	if err := h.SubmitQueryResult(protocol.ReductionResult{
		Site: 1000, Query: q.ID(), Object: encodeSum(7),
	}); err != nil {
		t.Fatal(err)
	}
	rep, err = h.Poll(1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drain {
		t.Fatalf("poll after submit = %+v, want Drain", rep)
	}
	select {
	case <-ch1:
	default:
		t.Fatal("drain channel not closed")
	}
	// A departed site is gone: its next request is rejected.
	if _, err := h.Poll(1000, 1); err == nil {
		t.Fatal("poll after departure accepted")
	}
}

package head

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/protocol"
)

// multiHead builds a long-lived head with no legacy query, ready for Admit.
func multiHead(t *testing.T, clusters int) *Head {
	t.Helper()
	h, err := New(Config{ExpectClusters: clusters, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// admitSumQuery admits one query over its own pool covering the whole index.
func admitSumQuery(t *testing.T, h *Head, ix *chunk.Index, placement jobs.Placement, weight int) *Query {
	t.Helper()
	pool, err := jobs.NewPool(ix, placement, jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := protocol.JobSpec{App: "sum", UnitSize: 4}
	if err := EncodeIndexSpec(&spec, ix); err != nil {
		t.Fatal(err)
	}
	q, err := h.Admit(QueryConfig{Pool: pool, Reducer: sumReducer{}, Spec: spec, Weight: weight})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestFairShareGrantShares: under contention — two queries with plenty of
// jobs each, one polling site — job grants converge to the weight ratios
// within 10%, the ISSUE's fairness acceptance bound.
func TestFairShareGrantShares(t *testing.T) {
	ix, err := chunk.Layout("fair", 4000, 4, 2000, 10) // 2 files × 200 chunks
	if err != nil {
		t.Fatal(err)
	}
	h := multiHead(t, 1)
	if _, err := h.RegisterSite(protocol.Hello{Site: 0, Cluster: "a", Proto: protocol.ProtoMulti}); err != nil {
		t.Fatal(err)
	}
	qa := admitSumQuery(t, h, ix, jobs.Placement{0, 0}, 1)
	qb := admitSumQuery(t, h, ix, jobs.Placement{0, 0}, 3)

	// 160 of each pool's 400 jobs: both queries stay contended throughout.
	counts := map[int]int{}
	total := 0
	for total < 320 {
		rep, err := poll(h, 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Queries) == 0 {
			t.Fatalf("empty grant after %d jobs with both pools undrained", total)
		}
		for _, qj := range rep.Queries {
			counts[qj.Query] += len(qj.Jobs)
			total += len(qj.Jobs)
		}
	}
	shareB := float64(counts[qb.ID()]) / float64(total)
	if shareB < 0.65 || shareB > 0.85 {
		t.Errorf("weight-3 query got share %.3f of %d jobs (counts=%v), want 0.75 ± 0.10",
			shareB, total, counts)
	}
	if counts[qa.ID()] == 0 {
		t.Error("weight-1 query starved")
	}
}

// TestLateJoinerSharesFromNow: a query admitted mid-run competes for future
// grants at its weight instead of stalling the incumbents or being starved.
func TestLateJoinerSharesFromNow(t *testing.T) {
	ix, err := chunk.Layout("late", 4000, 4, 2000, 10)
	if err != nil {
		t.Fatal(err)
	}
	h := multiHead(t, 1)
	if _, err := h.RegisterSite(protocol.Hello{Site: 0, Cluster: "a", Proto: protocol.ProtoMulti}); err != nil {
		t.Fatal(err)
	}
	qa := admitSumQuery(t, h, ix, jobs.Placement{0, 0}, 1)
	for i := 0; i < 10; i++ { // let the incumbent run up its pass
		if _, err := poll(h, 0, 8); err != nil {
			t.Fatal(err)
		}
	}
	qb := admitSumQuery(t, h, ix, jobs.Placement{0, 0}, 1)
	counts := map[int]int{}
	for i := 0; i < 20; i++ {
		rep, err := poll(h, 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, qj := range rep.Queries {
			counts[qj.Query] += len(qj.Jobs)
		}
	}
	if counts[qb.ID()] == 0 {
		t.Fatal("late joiner got nothing")
	}
	ratio := float64(counts[qb.ID()]) / float64(counts[qa.ID()]+counts[qb.ID()])
	if ratio < 0.4 || ratio > 0.6 {
		t.Errorf("late joiner share = %.3f (counts=%v), want ~0.5", ratio, counts)
	}
}

// TestQueryCancelDropsJobsAndNotifiesOnce: canceling a query fails its
// waiters with ErrQueryCanceled, withdraws its unassigned jobs from the
// fair-share rotation, and tells each site exactly once to drop its state.
func TestQueryCancelDropsJobsAndNotifiesOnce(t *testing.T) {
	ix, err := chunk.Layout("cancel", 400, 4, 200, 10)
	if err != nil {
		t.Fatal(err)
	}
	h := multiHead(t, 1)
	if _, err := h.RegisterSite(protocol.Hello{Site: 0, Cluster: "a", Proto: protocol.ProtoMulti}); err != nil {
		t.Fatal(err)
	}
	q := admitSumQuery(t, h, ix, jobs.Placement{0, 0}, 1)
	if _, err := poll(h, 0, 4); err != nil {
		t.Fatal(err)
	}
	q.Cancel()
	if _, _, _, err := q.Wait(context.Background()); !errors.Is(err, ErrQueryCanceled) {
		t.Fatalf("Wait after cancel = %v, want ErrQueryCanceled", err)
	}
	rep, err := poll(h, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Queries) != 0 {
		t.Errorf("canceled query still granted jobs: %+v", rep.Queries)
	}
	if len(rep.Dropped) != 1 || rep.Dropped[0] != q.ID() {
		t.Errorf("Dropped = %v, want [%d]", rep.Dropped, q.ID())
	}
	rep, err = poll(h, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Dropped) != 0 {
		t.Errorf("Dropped notice repeated: %v", rep.Dropped)
	}
	// Commits racing the cancel are answered as duplicates, not folds.
	dup, err := commitJobs(h, q.ID(), 0, []jobs.Job{{ID: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(dup) != 1 {
		t.Errorf("commit after cancel deduped %v, want the whole batch", dup)
	}
}

// TestWaitHonorsContext: Query.Wait returns promptly when its context is
// canceled even though the query is still running.
func TestWaitHonorsContext(t *testing.T) {
	ix, err := chunk.Layout("wait", 400, 4, 200, 10)
	if err != nil {
		t.Fatal(err)
	}
	h := multiHead(t, 1)
	q := admitSumQuery(t, h, ix, jobs.Placement{0, 0}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := q.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
}

// countingReducer counts Encode calls on top of sumReducer.
type countingReducer struct {
	sumReducer
	encodes *atomic.Int64
}

func (r countingReducer) Encode(obj core.Object) ([]byte, error) {
	r.encodes.Add(1)
	return r.sumReducer.Encode(obj)
}

// TestFinalObjectNeverEncodedAtHead: finishing a query must not encode the
// final object (least of all under the head lock) — Query.Wait hands out the
// object itself, and no wire message carries it back to the masters.
func TestFinalObjectNeverEncodedAtHead(t *testing.T) {
	ix, err := chunk.Layout("lazy", 40, 4, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	h := multiHead(t, 1)
	if _, err := h.RegisterSite(protocol.Hello{Site: 0, Cluster: "a", Proto: protocol.ProtoMulti}); err != nil {
		t.Fatal(err)
	}
	pool, err := jobs.NewPool(ix, jobs.Placement{0, 0}, jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var encodes atomic.Int64
	q, err := h.Admit(QueryConfig{Pool: pool, Reducer: countingReducer{encodes: &encodes},
		Spec: protocol.JobSpec{App: "sum", UnitSize: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for {
		rep, err := poll(h, 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Queries) == 0 {
			break
		}
		for _, qj := range rep.Queries {
			if _, err := commitJobs(h, qj.Query, 0, qj.Jobs); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := h.SubmitQueryResult(protocol.ReductionResult{Site: 0, Query: q.ID(), Object: encodeSum(7)}); err != nil {
		t.Fatal(err)
	}
	obj, _, _, err := q.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*sumObj).total; got != 7 {
		t.Fatalf("final object = %d, want 7", got)
	}
	if n := encodes.Load(); n != 0 {
		t.Fatalf("finishing the query encoded the final object %d times, want 0", n)
	}
}

// TestQuerySpecRacesCancel: a site fetching the spec while the client
// cancels the query sees either the spec or ErrQueryCanceled, and (under
// -race) the canceled flag is only ever read under the head lock.
func TestQuerySpecRacesCancel(t *testing.T) {
	ix, err := chunk.Layout("speccancel", 400, 4, 200, 10)
	if err != nil {
		t.Fatal(err)
	}
	h := multiHead(t, 1)
	if _, err := h.RegisterSite(protocol.Hello{Site: 0, Cluster: "a", Proto: protocol.ProtoMulti}); err != nil {
		t.Fatal(err)
	}
	q := admitSumQuery(t, h, ix, jobs.Placement{0, 0}, 1)
	fetched := make(chan struct{})
	result := make(chan error, 1)
	go func() {
		var once sync.Once
		for {
			spec, err := h.QuerySpec(0, q.ID())
			if err != nil {
				result <- err
				return
			}
			if spec.App != "sum" {
				result <- fmt.Errorf("spec.App = %q, want sum", spec.App)
				return
			}
			once.Do(func() { close(fetched) })
		}
	}()
	<-fetched
	q.Cancel()
	if err := <-result; !errors.Is(err, ErrQueryCanceled) {
		t.Fatalf("QuerySpec racing Cancel ended with %v, want ErrQueryCanceled", err)
	}
}

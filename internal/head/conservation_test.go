package head

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/config"
	"repro/internal/jobs"
	"repro/internal/protocol"
)

// jobVal maps a job ID to a pseudo-random weight. Conservation is asserted
// on the weighted sum: a lost job, a double-counted job, or a surviving
// contribution from a crashed site would each shift the total (Knuth
// multiplicative hashing makes an accidental cancellation astronomically
// unlikely).
func jobVal(id int) uint64 { return uint64(id)*2654435761 + 12345 }

// TestJobConservationUnderElasticChurn is the elasticity subsystem's safety
// property: under randomized interleavings of dynamic site admission, job
// granting, commits, graceful drains and outright crashes, the final
// reduction object still folds every job exactly once. Crashed sites lose
// their un-reported folds — the head must reissue exactly those jobs;
// drained sites commit what they hold and submit before departing.
func TestJobConservationUnderElasticChurn(t *testing.T) {
	ix, err := chunk.Layout("cons", 4000, 4, 1000, 20) // 4 files × 50 chunks = 200 jobs
	if err != nil {
		t.Fatal(err)
	}
	var expect uint64
	for id := 0; id < ix.NumChunks(); id++ {
		expect += jobVal(id)
	}
	for seed := int64(0); seed < 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runConservation(t, ix, expect, seed)
		})
	}
}

type churnSite struct {
	held      []jobs.Job
	acc       uint64
	submitted bool
}

func runConservation(t *testing.T, ix *chunk.Index, expect uint64, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h, err := New(Config{
		ExpectClusters: 1, DynamicSites: true,
		// A long lease keeps the fault machinery (FailSite's requeue +
		// reissue) on without spontaneous expiry racing the test.
		Tuning: config.Tuning{LeaseTTL: time.Hour},
		Logf:   func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	if _, err := h.RegisterSite(protocol.Hello{Site: 0, Cluster: "local", Proto: protocol.ProtoMulti}); err != nil {
		t.Fatal(err)
	}
	pool, err := jobs.NewPool(ix, jobs.Placement{0, 0, 0, 0}, jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := protocol.JobSpec{App: "sum", UnitSize: 4}
	if err := EncodeIndexSpec(&spec, ix); err != nil {
		t.Fatal(err)
	}
	q, err := h.Admit(QueryConfig{Pool: pool, Reducer: sumReducer{}, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}

	live := map[int]*churnSite{0: {}}
	nextSite := 1000
	sites := func() []int {
		out := make([]int, 0, len(live))
		for s := range live {
			out = append(out, s)
		}
		sort.Ints(out)
		return out
	}
	commit := func(site int, st *churnSite, n int) {
		if n > len(st.held) {
			n = len(st.held)
		}
		if n == 0 {
			return
		}
		batch := st.held[:n]
		dups, err := commitJobs(h, q.ID(), site, batch)
		if err != nil {
			t.Fatalf("site %d commit: %v", site, err)
		}
		dup := make(map[int]bool, len(dups))
		for _, id := range dups {
			dup[id] = true
		}
		for _, j := range batch {
			if !dup[j.ID] {
				st.acc += jobVal(j.ID)
			}
		}
		st.held = append([]jobs.Job(nil), st.held[n:]...)
	}
	poll := func(site int, st *churnSite, n int) {
		rep, err := poll(h, site, n)
		if err != nil {
			t.Fatalf("site %d poll: %v", site, err)
		}
		for _, qj := range rep.Queries {
			st.held = append(st.held, qj.Jobs...)
		}
		for _, id := range rep.Done {
			if id == q.ID() && !st.submitted {
				st.submitted = true
				if err := h.SubmitQueryResult(protocol.ReductionResult{
					Site: site, Query: q.ID(), Object: encodeSum(st.acc),
				}); err != nil {
					t.Fatalf("site %d submit: %v", site, err)
				}
			}
		}
		if rep.Drain {
			if len(st.held) > 0 {
				t.Fatalf("site %d told to depart still holding %d jobs", site, len(st.held))
			}
			delete(live, site)
		}
	}

	// Random phase: interleave admission, polling, commits, drains, crashes.
	for step := 0; step < 500; step++ {
		select {
		case <-q.Done():
		default:
		}
		ss := sites()
		site := ss[rng.Intn(len(ss))]
		st := live[site]
		switch r := rng.Intn(100); {
		case r < 10 && nextSite < 1006: // admit a burst worker
			s := nextSite
			nextSite++
			if _, err := h.RegisterSite(protocol.Hello{
				Site: s, Cluster: fmt.Sprintf("burst-%d", s), Proto: protocol.ProtoMulti,
			}); err != nil {
				t.Fatalf("dynamic register of site %d: %v", s, err)
			}
			live[s] = &churnSite{}
		case r < 50:
			poll(site, st, 1+rng.Intn(8))
		case r < 85:
			commit(site, st, 1+rng.Intn(8))
		case r < 93 && site != 0: // graceful drain
			if _, err := h.DrainSite(site); err != nil {
				t.Fatalf("drain site %d: %v", site, err)
			}
		case r < 100 && site != 0 && !st.submitted: // crash: held folds are lost
			h.FailSite(site)
			delete(live, site)
		}
	}

	// Drain-down phase: every survivor commits what it holds and keeps
	// polling until the query seals.
	for round := 0; ; round++ {
		select {
		case <-q.Done():
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			obj, _, _, err := q.Wait(ctx)
			if err != nil {
				t.Fatalf("query failed: %v", err)
			}
			if got := obj.(*sumObj).total; got != expect {
				t.Fatalf("conservation violated: reduced %d, want %d (Δ=%d)", got, expect, int64(got-expect))
			}
			return
		default:
		}
		if round > 2000 {
			t.Fatalf("query did not complete: %d sites left, remaining=%d outstanding=%d",
				len(live), pool.Remaining(), pool.Outstanding())
		}
		for _, site := range sites() {
			st, ok := live[site]
			if !ok {
				continue
			}
			commit(site, st, len(st.held))
			poll(site, st, 8)
		}
	}
}

package head_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/config"
	"repro/internal/costmodel"
	"repro/internal/elastic"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/protocol"
)

// This file is an external test package: the arbiter imports head, so only
// a test outside package head can drive a real head with a real arbiter.

// TestArbiterSafetyUnderChurn is the session-wide arbiter's safety property:
// with the arbiter itself deciding every launch and drain while queries are
// admitted and canceled mid-flight and burst workers crash at random, three
// invariants must hold on every interleaving —
//
//   - exactly-once conservation: each surviving query's final reduction
//     object folds every one of its jobs exactly once, across reissues after
//     crashes and graceful drains the arbiter ordered;
//   - budgets: a query's attributed share of the realized instance spend
//     (Arbiter.CostByQuery) never exceeds its own Policy.Budget — the
//     forced-drain enforcement must outrun accrual at every tick;
//   - fairness: while both long-lived queries have grantable work, job
//     grants track their 2:1 fair-share weights even as the fleet resizes
//     under them.
//
// The fleet genuinely churns: the tight (infeasible) deadline keeps upward
// pressure on every tick, the budget and the end-of-session idle rule force
// drains, and crashes delete workers the arbiter believes in.
func TestArbiterSafetyUnderChurn(t *testing.T) {
	ix, err := chunk.Layout("arb", 4000, 4, 1000, 20) // 4 files × 50 chunks = 200 jobs
	if err != nil {
		t.Fatal(err)
	}
	var expect uint64
	for id := 0; id < ix.NumChunks(); id++ {
		expect += head.JobVal(id)
	}
	var ups, downs int
	for seed := int64(0); seed < 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			u, d := runArbiterChurn(t, ix, expect, seed)
			ups += u
			downs += d
		})
	}
	if ups == 0 || downs == 0 {
		t.Fatalf("fleet never resized across all seeds (ups=%d downs=%d) — the property is vacuous", ups, downs)
	}
}

// arbChurnSite is one site's master-side state in the churn harness, keyed
// by query where the head's multi-query surface is.
type arbChurnSite struct {
	held      map[int][]jobs.Job
	acc       map[int]uint64
	submitted map[int]bool
}

func newArbChurnSite() *arbChurnSite {
	return &arbChurnSite{
		held:      make(map[int][]jobs.Job),
		acc:       make(map[int]uint64),
		submitted: make(map[int]bool),
	}
}

func runArbiterChurn(t *testing.T, ix *chunk.Index, expect uint64, seed int64) (ups, downs int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h, err := head.New(head.Config{
		ExpectClusters: 1, DynamicSites: true,
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
	admit := func(weight int, pol *elastic.Policy) (*head.Query, *jobs.Pool) {
		pool, err := jobs.NewPool(ix, jobs.Placement{0, 0, 0, 0}, jobs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		spec := protocol.JobSpec{App: "sum", UnitSize: 4}
		if err := head.EncodeIndexSpec(&spec, ix); err != nil {
			t.Fatal(err)
		}
		q, err := h.Admit(head.QueryConfig{
			Pool: pool, Reducer: head.SumReducer{}, Spec: spec, Weight: weight, Policy: pol,
		})
		if err != nil {
			t.Fatal(err)
		}
		return q, pool
	}
	const budgetB = 0.006
	// qa's deadline is infeasible for the synthetic model on purpose: it
	// keeps the arbiter's scale-up pressure on for the whole run.
	qa, poolA := admit(2, &elastic.Policy{Deadline: 10 * time.Second})
	qb, poolB := admit(1, &elastic.Policy{Budget: budgetB})
	var qc *head.Query
	qcCanceled := false
	admitCAt := 50 + rng.Intn(100)
	cancelCAt := 250 + rng.Intn(150)
	doCancelC := rng.Intn(3) < 2

	arb, err := elastic.NewArbiter(elastic.ArbiterConfig{
		Interval:   500 * time.Millisecond,
		MaxWorkers: 4,
		Pricing:    costmodel.DefaultPricingCurrent(),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Synthetic throughput model for StepWith: each worker adds one site 0's
	// worth of drain rate, so more workers always helps but qa's 10s deadline
	// stays out of reach.
	rawEst := func(rem map[int]int64, workers int) (time.Duration, bool) {
		var total int64
		for _, b := range rem {
			total += b
		}
		if total <= 0 {
			return 0, true
		}
		rate := float64(1+workers) * 100 // bytes/sec
		return time.Duration(float64(total) / rate * float64(time.Second)), true
	}

	live := map[int]*arbChurnSite{0: newArbChurnSite()}
	nextSite := head.BurstSiteBase
	vnow := time.Duration(0)
	sites := func() []int {
		out := make([]int, 0, len(live))
		for s := range live {
			out = append(out, s)
		}
		sort.Ints(out)
		return out
	}

	// Fairness accounting: grants counted only while both long-lived pools
	// could have satisfied the whole ask, so end-game starvation and
	// outstanding-copy droughts don't pollute the ratio.
	var grantsA, grantsB int
	available := func(p *jobs.Pool) int { return p.Remaining() - p.Outstanding() }

	checkBudget := func() {
		costs := arb.CostByQuery()
		if c := costs[qb.ID()]; c > budgetB+1e-9 {
			t.Fatalf("budget violated: query %d attributed $%.6f > $%.4f", qb.ID(), c, budgetB)
		}
		var sum float64
		for _, c := range costs {
			sum += c
		}
		if total := arb.InstanceCost(vnow); sum > total+1e-9 {
			t.Fatalf("attribution %.6f exceeds realized spend %.6f", sum, total)
		}
	}
	tick := func() {
		d := arb.StepWith(vnow, h.QueryLoads(), rawEst)
		switch d.Action {
		case elastic.ScaleUp:
			for i := 0; i < d.Delta; i++ {
				s := nextSite
				nextSite++
				if _, err := h.RegisterSite(protocol.Hello{
					Site: s, Cluster: fmt.Sprintf("burst-%d", s), Proto: protocol.ProtoMulti,
				}); err != nil {
					t.Fatalf("dynamic register of site %d: %v", s, err)
				}
				live[s] = newArbChurnSite()
				arb.WorkerLaunched(vnow, s)
			}
			ups++
		case elastic.ScaleDown:
			for _, s := range d.Sites {
				if _, err := h.DrainSite(s); err != nil {
					t.Fatalf("arbiter drain of site %d: %v", s, err)
				}
			}
			downs++
		}
		checkBudget()
	}
	commit := func(site int, st *arbChurnSite, query, n int) {
		held := st.held[query]
		if n > len(held) {
			n = len(held)
		}
		if n == 0 {
			return
		}
		batch := held[:n]
		dups, err := head.CommitJobs(h, query, site, batch)
		if err != nil {
			t.Fatalf("site %d commit for query %d: %v", site, query, err)
		}
		dup := make(map[int]bool, len(dups))
		for _, id := range dups {
			dup[id] = true
		}
		for _, j := range batch {
			if !dup[j.ID] {
				st.acc[query] += head.JobVal(j.ID)
			}
		}
		st.held[query] = append([]jobs.Job(nil), held[n:]...)
	}
	poll := func(site int, st *arbChurnSite, n int) {
		fairCounted := available(poolA) >= n && available(poolB) >= n
		rep, err := head.Poll(h, site, n)
		if err != nil {
			t.Fatalf("site %d poll: %v", site, err)
		}
		for _, qj := range rep.Queries {
			st.held[qj.Query] = append(st.held[qj.Query], qj.Jobs...)
			if fairCounted {
				switch qj.Query {
				case qa.ID():
					grantsA += len(qj.Jobs)
				case qb.ID():
					grantsB += len(qj.Jobs)
				}
			}
		}
		for _, id := range rep.Dropped {
			delete(st.held, id)
		}
		for _, id := range rep.Done {
			if !st.submitted[id] {
				st.submitted[id] = true
				if err := h.SubmitQueryResult(protocol.ReductionResult{
					Site: site, Query: id, Object: head.EncodeSum(st.acc[id]),
				}); err != nil {
					t.Fatalf("site %d submit for query %d: %v", site, id, err)
				}
			}
		}
		if rep.Drain {
			delete(live, site)
			if site >= head.BurstSiteBase {
				arb.WorkerStopped(vnow, site)
			}
		}
	}
	heldQueries := func(st *arbChurnSite) []int {
		var qs []int
		for q, js := range st.held {
			if len(js) > 0 {
				qs = append(qs, q)
			}
		}
		sort.Ints(qs)
		return qs
	}

	// Random phase: the arbiter ticks on a virtual clock while sites poll,
	// commit and crash, and the third query comes and (maybe) goes.
	for step := 0; step < 500; step++ {
		vnow += 100 * time.Millisecond
		if step%5 == 0 {
			tick()
		}
		if qc == nil && step == admitCAt {
			qc, _ = admit(1, nil)
		}
		if doCancelC && qc != nil && !qcCanceled && step == cancelCAt {
			qc.Cancel()
			qcCanceled = true
		}
		ss := sites()
		site := ss[rng.Intn(len(ss))]
		st := live[site]
		switch r := rng.Intn(100); {
		case r < 55:
			poll(site, st, 1+rng.Intn(8))
		case r < 90:
			if qs := heldQueries(st); len(qs) > 0 {
				commit(site, st, qs[rng.Intn(len(qs))], 1+rng.Intn(8))
			}
		case site != 0: // crash: held folds are lost, the arbiter's worker dies
			h.FailSite(site)
			delete(live, site)
			arb.WorkerStopped(vnow, site)
		}
	}

	// Drain-down phase: every survivor commits what it holds and keeps
	// polling; the arbiter keeps ticking so the idle-session rule drains the
	// fleet it still owns.
	queryDone := func(q *head.Query) bool {
		if q == nil {
			return true
		}
		select {
		case <-q.Done():
			return true
		default:
			return false
		}
	}
	for round := 0; ; round++ {
		vnow += 100 * time.Millisecond
		if round%5 == 0 {
			tick()
		}
		burstLeft := 0
		for _, s := range sites() {
			if s >= head.BurstSiteBase {
				burstLeft++
			}
		}
		if queryDone(qa) && queryDone(qb) && queryDone(qc) && burstLeft == 0 {
			break
		}
		if round > 3000 {
			t.Fatalf("churn did not settle: %d sites (%d burst) left, qa=%v qb=%v qc=%v",
				len(live), burstLeft, queryDone(qa), queryDone(qb), queryDone(qc))
		}
		for _, site := range sites() {
			st, ok := live[site]
			if !ok {
				continue
			}
			for _, q := range heldQueries(st) {
				commit(site, st, q, len(st.held[q]))
			}
			poll(site, st, 8)
		}
	}
	checkBudget()

	// Exactly-once conservation for every surviving query.
	verify := func(name string, q *head.Query) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		obj, _, _, err := q.Wait(ctx)
		if err != nil {
			t.Fatalf("query %s failed: %v", name, err)
		}
		if got := head.SumTotal(obj); got != expect {
			t.Fatalf("conservation violated for %s: reduced %d, want %d (Δ=%d)",
				name, got, expect, int64(got-expect))
		}
	}
	verify("qa", qa)
	verify("qb", qb)
	if qc != nil {
		if qcCanceled {
			if _, _, _, err := qc.Wait(context.Background()); !errors.Is(err, head.ErrQueryCanceled) {
				t.Fatalf("canceled query Wait = %v, want ErrQueryCanceled", err)
			}
		} else {
			verify("qc", qc)
		}
	}

	// Fair share held while the fleet resized: 2:1 weights within tolerance
	// over the contended grants.
	if total := grantsA + grantsB; total >= 60 {
		shareA := float64(grantsA) / float64(total)
		if shareA < 2.0/3-0.15 || shareA > 2.0/3+0.15 {
			t.Fatalf("fair share drifted: weight-2 query got %.3f of %d contended grants, want 0.667 ± 0.15",
				shareA, total)
		}
	}
	return ups, downs
}

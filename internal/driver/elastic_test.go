package driver

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/elastic"
	"repro/internal/head"
	"repro/internal/hybridsim"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/workload"
)

// slowAfter wraps a Source: once `after` chunks have been read, every
// further read stalls for `delay` — the live analogue of the simulator's
// injected mid-run slowdown (a degrading disk array under the static
// clusters). Burst workers get the unwrapped source: they read in-region.
type slowAfter struct {
	inner chunk.Source
	after int64
	delay time.Duration
	reads atomic.Int64
}

func (s *slowAfter) ReadChunk(ref chunk.Ref) ([]byte, error) {
	if s.reads.Add(1) > s.after {
		time.Sleep(s.delay)
	}
	return s.inner.ReadChunk(ref)
}

// TestArbiterLiveTwoQueryDeadlines is the live end-to-end drill for the
// session-wide arbiter: TWO concurrent queries, each with its own policy,
// over a deployment whose sources degrade mid-run. One arbiter sizes one
// shared burst fleet for the aggregate; the tight-deadline query must meet
// a deadline the static topology demonstrably misses (measured by a static
// concurrent baseline), the lax query must stay within its budget, every
// burst worker must be gone by the end, and both reduction objects must be
// byte-identical to sequential static runs.
func TestArbiterLiveTwoQueryDeadlines(t *testing.T) {
	gen := workload.ClusteredPoints{Seed: 9, Dim: 2, K: 2, Spread: 0.05}
	ix, err := chunk.Layout("els", 2400, gen.UnitSize(), 200, 25) // 96 chunks
	if err != nil {
		t.Fatal(err)
	}
	src := chunk.NewMemSource(ix)
	if err := workload.Build(ix, gen, src); err != nil {
		t.Fatal(err)
	}
	// Two distinguishable queries over the same scan: 8-bin and 16-bin
	// histograms, so each byte-identity check has its own baseline.
	mkStep := func(bins int) Step {
		hp := apps.HistogramParams{Bins: bins, Dim: 2}
		params, err := apps.EncodeHistogramParams(hp)
		if err != nil {
			t.Fatal(err)
		}
		r, err := apps.NewHistogramReducer(hp)
		if err != nil {
			t.Fatal(err)
		}
		return Step{App: apps.HistogramReducerName, Params: params, Reducer: r}
	}
	deploy := func(o *obs.Obs, ec *ElasticConfig) *Deployment {
		slow := &slowAfter{inner: src, after: 8, delay: 25 * time.Millisecond}
		sources := map[int]chunk.Source{0: slow, 1: slow}
		return &Deployment{
			Index:     ix,
			Placement: jobs.SplitByFraction(len(ix.Files), 0.5, 0, 1),
			Clusters: []ClusterSpec{
				{Site: 0, Name: "local", Cores: 2, Sources: sources},
				{Site: 1, Name: "cloud", Cores: 2, Sources: sources},
			},
			Obs:     o,
			Elastic: ec,
			Logf:    t.Logf,
		}
	}
	encode := func(s Step, obj core.Object) []byte {
		b, err := s.Reducer.Encode(obj)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	countJobs := func(reports []head.ClusterReport) (jobs, burst int) {
		for _, r := range reports {
			jobs += r.Jobs.Local + r.Jobs.Stolen
			if r.Site >= head.BurstSiteBase {
				burst++
			}
		}
		return
	}
	type queryRun struct {
		obj     core.Object
		reports []head.ClusterReport
		dur     time.Duration
		err     error
	}
	waitBoth := func(start time.Time, a, b *Query) (ra, rb queryRun) {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			ra.obj, ra.reports, ra.err = a.Wait(context.Background())
			ra.dur = time.Since(start)
		}()
		go func() {
			defer wg.Done()
			rb.obj, rb.reports, rb.err = b.Wait(context.Background())
			rb.dur = time.Since(start)
		}()
		wg.Wait()
		return
	}

	// Sequential static runs: byte-identity baselines, and the calibration
	// point for the arbiter's analytic model.
	sT := mkStep(8)
	start := time.Now()
	staticTightObj, staticTightReports, err := deploy(nil, nil).RunOnce(sT)
	if err != nil {
		t.Fatal(err)
	}
	staticDur := time.Since(start)
	staticTightBytes := encode(sT, staticTightObj)
	if jobs, _ := countJobs(staticTightReports); jobs != ix.NumChunks() {
		t.Fatalf("static run committed %d jobs, want %d", jobs, ix.NumChunks())
	}
	sL := mkStep(16)
	staticLaxObj, _, err := deploy(nil, nil).RunOnce(sL)
	if err != nil {
		t.Fatal(err)
	}
	staticLaxBytes := encode(sL, staticLaxObj)

	// Static CONCURRENT baseline: both queries compete for the fixed
	// topology, so the tight query's completion time here is what its
	// deadline must beat — "a deadline static misses".
	concSess, err := NewSession(deploy(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	concStart := time.Now()
	cT, err := concSess.Submit(mkStep(8))
	if err != nil {
		t.Fatal(err)
	}
	cL, err := concSess.Submit(mkStep(16))
	if err != nil {
		t.Fatal(err)
	}
	concTight, concLax := waitBoth(concStart, cT, cL)
	if concTight.err != nil || concLax.err != nil {
		t.Fatal(concTight.err, concLax.err)
	}
	if err := concSess.Close(); err != nil {
		t.Fatal(err)
	}

	// The tight deadline sits between the single-query static runtime and
	// the static concurrent runtime: infeasible for the shared static
	// topology (double the work, same capacity), feasible with burst.
	deadline := staticDur * 5 / 4
	if concTight.dur <= deadline {
		t.Fatalf("static concurrent run finished the tight query in %v, inside the %v deadline — baseline not discriminating", concTight.dur, deadline)
	}

	// Arbiter environment, calibrated so the nominal model reproduces the
	// static runtime: est(0 extra workers) ≈ staticDur for one query, and
	// each 2-core burst worker adds half the static capacity.
	totalBytes := float64(ix.TotalUnits() * int64(gen.UnitSize()))
	perCore := totalBytes / staticDur.Seconds() / 4
	env := elastic.Env{
		Base: hybridsim.Config{
			Queries: []hybridsim.Query{{App: hybridsim.AppModel{Name: "hist-live",
				ComputeBytesPerSec: perCore, RobjBytes: 1 << 10, MergeBytesPerSec: 1 << 40}}},
			Topology: hybridsim.Topology{Clusters: []hybridsim.ClusterModel{
				{Name: "local", Site: 0, Cores: 2, RetrievalThreads: 2},
				{Name: "cloud", Site: 1, Cores: 2, RetrievalThreads: 2},
			}},
		},
		Worker: hybridsim.ClusterModel{Cores: 2, RetrievalThreads: 2},
	}
	o := obs.New(nil)
	ec := &ElasticConfig{
		Env: env,
		// Burst workers read the pristine source directly — the in-region
		// path the slowdown does not touch.
		Worker: ClusterSpec{Cores: 2, Sources: map[int]chunk.Source{0: src, 1: src}},
		// Session-wide knobs live on the arbiter; per-query deadline/budget
		// travel with each Step below.
		Arbiter: elastic.ArbiterConfig{
			Interval:              40 * time.Millisecond,
			ScaleUpCooldown:       120 * time.Millisecond,
			ScaleDownDrainTimeout: 5 * time.Second,
			MaxWorkers:            4,
			Pricing:               costmodel.DefaultPricingCurrent(),
		},
	}
	const laxBudget = 0.02 // dollars; generous at per-second billing, but a real cap
	eT := mkStep(8)
	eT.Elastic = &elastic.Policy{Deadline: deadline}
	eL := mkStep(16)
	eL.Elastic = &elastic.Policy{Deadline: 4 * staticDur, Budget: laxBudget}

	sess, err := NewSession(deploy(o, ec))
	if err != nil {
		t.Fatal(err)
	}
	elasticStart := time.Now()
	qT, err := sess.Submit(eT)
	if err != nil {
		t.Fatal(err)
	}
	qL, err := sess.Submit(eL)
	if err != nil {
		t.Fatal(err)
	}
	laxID := qL.ID()
	elTight, elLax := waitBoth(elasticStart, qT, qL)
	if elTight.err != nil || elLax.err != nil {
		t.Fatal(elTight.err, elLax.err)
	}
	costs := sess.burst.arb.CostByQuery()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	// Conservation per query: every chunk committed exactly once across
	// static AND burst sites, every unit folded exactly once.
	tightJobs, tightBurst := countJobs(elTight.reports)
	laxJobs, laxBurst := countJobs(elLax.reports)
	if tightJobs != ix.NumChunks() {
		t.Errorf("tight query committed %d jobs, want %d", tightJobs, ix.NumChunks())
	}
	if laxJobs != ix.NumChunks() {
		t.Errorf("lax query committed %d jobs, want %d", laxJobs, ix.NumChunks())
	}
	for _, r := range []queryRun{elTight, elLax} {
		if got := r.obj.(*apps.HistogramObject).Total(); got != ix.TotalUnits() {
			t.Errorf("elastic query folded %d units, want %d", got, ix.TotalUnits())
		}
	}

	// Byte-identical results against the sequential static runs.
	if !bytes.Equal(encode(eT, elTight.obj), staticTightBytes) {
		t.Errorf("tight query's reduction object differs from its sequential static run")
	}
	if !bytes.Equal(encode(eL, elLax.obj), staticLaxBytes) {
		t.Errorf("lax query's reduction object differs from its sequential static run")
	}

	// One shared fleet served both queries: the arbiter scaled up at least
	// once, burst workers contributed to BOTH queries' reductions, and the
	// fleet was fully drained by session close.
	snap := o.Registry.Snapshot()
	ups, workersLeft := int64(0), int64(0)
	for k, v := range snap {
		if strings.HasPrefix(k, "elastic_scale_events_total") && strings.Contains(k, `dir="up"`) {
			ups += v
		}
		if strings.HasPrefix(k, "elastic_workers") {
			workersLeft += v
		}
	}
	if ups == 0 {
		t.Errorf("no scale-up events recorded: %v", filterPrefix(snap, "elastic_"))
	}
	if workersLeft != 0 {
		t.Errorf("elastic_workers gauges nonzero after the run: %v", filterPrefix(snap, "elastic_workers"))
	}
	if tightBurst == 0 {
		t.Errorf("no burst worker contributed to the tight query")
	}
	if laxBurst == 0 {
		t.Errorf("no burst worker contributed to the lax query")
	}

	// Policy outcomes: the tight query met the deadline the static
	// concurrent baseline missed; the lax query stayed within its budget.
	if elTight.dur > deadline {
		t.Errorf("tight query took %v, missing the %v deadline the arbiter was steering at", elTight.dur, deadline)
	}
	if costs[laxID] > laxBudget {
		t.Errorf("lax query's attributed cost $%.6f exceeds its $%.2f budget", costs[laxID], laxBudget)
	}

	t.Logf("static %.0fms, static-concurrent tight %.0fms vs elastic tight %.0fms (deadline %.0fms); lax %.0fms at $%.6f; %d+%d burst contributors",
		float64(staticDur.Milliseconds()), float64(concTight.dur.Milliseconds()),
		float64(elTight.dur.Milliseconds()), float64(deadline.Milliseconds()),
		float64(elLax.dur.Milliseconds()), costs[laxID], tightBurst, laxBurst)
}

package experiments

import (
	"sync"
	"testing"
	"time"

	"repro/internal/costmodel"
)

// The staged-knn acceptance gate. knn is retrieval-bound: burst workers are
// only as fast as the WAN feeding them, so without the partition cache the
// elastic arbiter cannot buy its way out of a degraded local storage
// array — static provisioning wins everywhere. With the burst-side cache
// pre-staging hot partitions in grant order, the iterative run's second pass
// reads at cloud-local rates and the same arbiter lands on a frontier no
// static plan picked in advance can reach.

// iterKNNOpts is the two-pass knn scenario without the cache tier.
var iterKNNOpts = ElasticOptions{Iterations: 2}

// stagedKNNOpts adds the burst-side partition cache and a 5s simulated worker
// boot (with the matching arbiter lead time).
var stagedKNNOpts = ElasticOptions{Staged: true, Iterations: 2, LaunchDelay: 5 * time.Second}

var knnUnstagedSweep = sync.OnceValues(func() (*ElasticSweep, error) {
	return RunElasticSweepWith(KNN, costmodel.DefaultPricingCurrent(),
		DefaultElasticDeadlines, DefaultElasticBudgets, iterKNNOpts)
})

var knnStagedSweep = sync.OnceValues(func() (*ElasticSweep, error) {
	return RunElasticSweepWith(KNN, costmodel.DefaultPricingCurrent(),
		DefaultElasticDeadlines, DefaultElasticBudgets, stagedKNNOpts)
})

// point selects the sweep cell at (deadline, budget).
func point(t *testing.T, sw *ElasticSweep, d time.Duration, budget float64) ElasticPoint {
	t.Helper()
	for _, p := range sw.Points {
		if p.Deadline == d && p.Budget == budget {
			return p
		}
	}
	t.Fatalf("no sweep point at deadline=%v budget=%.2f", d, budget)
	return ElasticPoint{}
}

// TestKNNUnstagedStaticWins pins the "before" side of the tentpole: on the
// retrieval-bound app, bursting without the cache tier is pointless. The
// elastic arbiter misses the two tight deadlines outright — its WAN-bound
// workers cannot absorb the slowdown — while a static candidate meets them;
// and the one cell elastic does meet is strictly Pareto-dominated by a
// static allocation realized under the very same slowdown.
func TestKNNUnstagedStaticWins(t *testing.T) {
	sw, err := knnUnstagedSweep()
	if err != nil {
		t.Fatal(err)
	}
	bestStatic := time.Duration(0)
	for _, c := range sw.Static {
		if c.CloudCores > 0 && (bestStatic == 0 || c.Makespan < bestStatic) {
			bestStatic = c.Makespan
		}
	}
	for _, p := range sw.Points {
		if p.Deadline <= 150*time.Second {
			if p.MetDeadline {
				t.Errorf("unstaged elastic met deadline %v (%.1fs) — the retrieval-bound scenario no longer needs the cache tier",
					p.Deadline, p.Makespan.Seconds())
			}
			if bestStatic > p.Deadline {
				t.Errorf("no static candidate meets deadline %v either (best %.1fs) — static must win this cell for the contrast to hold",
					p.Deadline, bestStatic.Seconds())
			}
			continue
		}
		if _, dom := sw.Dominated(p); !dom {
			t.Errorf("unstaged elastic point (deadline=%v): %.1fs / $%.4f is not dominated by any static candidate",
				p.Deadline, p.Makespan.Seconds(), p.Cost.Total())
		}
	}
}

// TestKNNStagedElasticFrontier is the tentpole acceptance gate: with the
// partition cache staged ahead of the workers, the same arbiter meets the
// 120s deadline the unstaged run missed, and it dominates the best static
// candidate — the allocation a capacity planner trusting the nominal model
// would have committed to. That plan (the smallest menu entry whose
// slowdown-free makespan fits the deadline) misses the deadline once the
// slowdown is realized; the elastic point meets it. Under a deadline SLO,
// feasibility orders before cost, so meeting the deadline the planner's pick
// misses is strict domination. The point also undercuts panic
// over-provisioning — the largest static allocation, the only menu entry
// that would have survived a ~110s deadline.
func TestKNNStagedElasticFrontier(t *testing.T) {
	sw, err := knnStagedSweep()
	if err != nil {
		t.Fatal(err)
	}
	deadline := 120 * time.Second
	p := point(t, sw, deadline, 0)
	if !p.MetDeadline {
		t.Fatalf("staged elastic missed deadline %v: makespan %.1fs", deadline, p.Makespan.Seconds())
	}
	if p.ScaleUps == 0 {
		t.Error("deadline met without any scale-up — slowdown not biting")
	}

	// The nominal planner's pick: smallest static allocation whose
	// slowdown-free staged makespan fits the deadline.
	planned := 0
	for _, cores := range ElasticStaticCores {
		if cores == 0 {
			continue
		}
		nominal, err := NominalStaticMakespan(KNN, cores, stagedKNNOpts)
		if err != nil {
			t.Fatal(err)
		}
		if nominal <= deadline {
			planned = cores
			break
		}
	}
	if planned == 0 {
		t.Fatal("no static allocation meets the deadline even nominally — scenario miscalibrated")
	}
	var plannedRealized, largest costmodel.Candidate
	for _, c := range sw.Static {
		if c.CloudCores == planned {
			plannedRealized = c
		}
		if c.CloudCores > largest.CloudCores {
			largest = c
		}
	}
	if plannedRealized.Makespan <= deadline {
		t.Errorf("nominal static plan (%d cores) still meets deadline %v when realized (%.1fs) — elastic adaptation has nothing to add",
			planned, deadline, plannedRealized.Makespan.Seconds())
	}
	// Domination over the planner's pick: the static plan blew its SLO, the
	// elastic point kept it.
	t.Logf("nominal plan %d cores realized %.1fs (missed %v); elastic %.1fs / $%.4f; largest static %.1fs / $%.4f",
		planned, plannedRealized.Makespan.Seconds(), deadline,
		p.Makespan.Seconds(), p.Cost.Total(), largest.Makespan.Seconds(), largest.Cost.Total())
	if largest.Makespan > deadline {
		t.Errorf("largest static allocation (%d cores) misses deadline %v (%.1fs) — over-provisioning comparison void",
			largest.CloudCores, deadline, largest.Makespan.Seconds())
	}
	if p.Cost.Total() >= largest.Cost.Total() {
		t.Errorf("elastic point costs $%.4f, not below the $%.4f of panic over-provisioning (%d cores)",
			p.Cost.Total(), largest.Cost.Total(), largest.CloudCores)
	}

	// The cache tier is what changed the economics: cross-boundary transfer
	// spend collapses versus the unstaged run of the same cell.
	usw, err := knnUnstagedSweep()
	if err != nil {
		t.Fatal(err)
	}
	up := point(t, usw, deadline, 0)
	if p.Cost.Transfer*2 >= up.Cost.Transfer {
		t.Errorf("staged transfer cost $%.4f is not under half the unstaged $%.4f",
			p.Cost.Transfer, up.Cost.Transfer)
	}
}

// TestKNNStagedWarmIterationHitRate pins the cache's iterative payoff: after
// the first pass has populated the replica, the second pass must be served
// almost entirely from it (≥90% hits; in practice it is 100%).
func TestKNNStagedWarmIterationHitRate(t *testing.T) {
	sw, err := knnStagedSweep()
	if err != nil {
		t.Fatal(err)
	}
	p := point(t, sw, 120*time.Second, 0)
	st := p.Stage
	if st == nil {
		t.Fatal("staged run reported no stage stats")
	}
	if st.PrestagedChunks == 0 {
		t.Error("no chunks were pre-staged — the grant-order pre-stager never ran")
	}
	if len(st.ByIter) != 2 {
		t.Fatalf("ByIter has %d entries, want 2", len(st.ByIter))
	}
	warm := st.ByIter[1]
	total := warm.Hits + warm.Misses
	if total == 0 {
		t.Fatal("second pass made no cacheable reads")
	}
	if rate := float64(warm.Hits) / float64(total); rate < 0.9 {
		t.Errorf("warm-iteration hit rate %.2f (%d/%d), want >= 0.90", rate, warm.Hits, total)
	}
}

// TestKNNStagedSweepDeterministic re-runs the staged sweep and demands
// byte-identical renderings — the cache tier adds state to the simulation
// but nothing nondeterministic.
func TestKNNStagedSweepDeterministic(t *testing.T) {
	sw1, err := knnStagedSweep()
	if err != nil {
		t.Fatal(err)
	}
	sw2, err := RunElasticSweepWith(KNN, costmodel.DefaultPricingCurrent(),
		DefaultElasticDeadlines, DefaultElasticBudgets, stagedKNNOpts)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := FormatElasticSweep(sw1), FormatElasticSweep(sw2); a != b {
		t.Errorf("staged sweep rendering differs across reruns:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if a, b := ElasticSweepCSV(sw1), ElasticSweepCSV(sw2); a != b {
		t.Errorf("staged sweep CSV differs across reruns:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

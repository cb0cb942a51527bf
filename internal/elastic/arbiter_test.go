package elastic

import (
	"strings"
	"testing"
	"time"

	"repro/internal/costmodel"
)

// arbEst is a synthetic estimator for StepWith: total remaining bytes at
// `rate` bytes/sec per worker-equivalent (so est halves when the fleet
// doubles, and share-scaled maps take proportionally longer).
func arbEst(rate float64) func(rem map[int]int64, workers int) (time.Duration, bool) {
	return func(rem map[int]int64, workers int) (time.Duration, bool) {
		var total int64
		for _, b := range rem {
			total += b
		}
		if total <= 0 {
			return 0, true
		}
		return time.Duration(float64(total) / (rate * float64(1+workers)) * float64(time.Second)), true
	}
}

func mustArbiter(t *testing.T, cfg ArbiterConfig) *Arbiter {
	t.Helper()
	a, err := NewArbiter(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestValidateQueryPolicy(t *testing.T) {
	bad := []Policy{
		{Deadline: -time.Second},
		{Budget: -0.01},
		{MinWorkers: -1},
		{MaxWorkers: -2},
		{MinWorkers: 5, MaxWorkers: 4},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("policy %d accepted: %+v", i, p)
		}
	}
	// MaxWorkers 0 (= arbiter session cap) is fine, and so is a fully zero
	// policy.
	for i, p := range []Policy{{}, {Deadline: time.Minute, MinWorkers: 2}} {
		if err := p.Validate(); err != nil {
			t.Errorf("good policy %d rejected: %v", i, err)
		}
	}
}

// TestArbiterScalesForTightestDeadline: two queries, one lax and one tight;
// the single fleet decision must be sized by the tight query's share-scaled
// estimate, not the aggregate alone.
func TestArbiterScalesForTightestDeadline(t *testing.T) {
	a := mustArbiter(t, ArbiterConfig{MaxWorkers: 8})
	loads := []QueryLoad{
		{Query: 0, Weight: 1, Policy: &Policy{Deadline: 100 * time.Second},
			Remaining: map[int]int64{1: 120}},
		{Query: 1, Weight: 1, Policy: &Policy{Deadline: 10 * time.Minute},
			Remaining: map[int]int64{1: 120}},
	}
	// rate 1 B/s per worker-equivalent. Aggregate = 240 B → est(w)=240/(1+w).
	// Query 0 share-scaled = 240 B too (weight 1 of 2), target 87.5s:
	// w=2 → 80s meets it; the lax query (target 525s) is met trivially.
	dec := a.StepWith(0, loads, arbEst(1))
	if dec.Action != ScaleUp || dec.Workers != 2 {
		t.Fatalf("decision = %+v (%s), want scale-up to 2", dec, dec.Reason)
	}
	if !strings.Contains(dec.Reason, "meets all deadlines") {
		t.Errorf("reason = %q", dec.Reason)
	}
}

// TestArbiterInfeasibleDeadlineDropsOut: a deadline no fleet under the cap
// can meet must stop constraining the search; the feasible query still gets
// a fleet sized for it.
func TestArbiterInfeasibleDeadlineDropsOut(t *testing.T) {
	a := mustArbiter(t, ArbiterConfig{MaxWorkers: 4})
	loads := []QueryLoad{
		// Share-scaled remaining 240 B; even w=4 gives 48s > target 0.875s.
		{Query: 0, Weight: 1, Policy: &Policy{Deadline: time.Second},
			Remaining: map[int]int64{1: 120}},
		// Share-scaled 240 B, target 175s: w=1 gives 120s, met.
		{Query: 1, Weight: 1, Policy: &Policy{Deadline: 200 * time.Second},
			Remaining: map[int]int64{1: 120}},
	}
	dec := a.StepWith(0, loads, arbEst(1))
	if dec.Action != ScaleUp {
		t.Fatalf("decision = %+v (%s), want scale-up", dec, dec.Reason)
	}
	if !strings.Contains(dec.Reason, "infeasible") {
		t.Errorf("reason = %q, want infeasible-deadline note", dec.Reason)
	}
	if dec.Workers != 1 {
		t.Errorf("fleet = %d, want 1 (sized for the feasible query only)", dec.Workers)
	}
}

// TestArbiterMinWorkersFloor: a query's MinWorkers is provisioned even with
// no deadline pressure, and the fleet never drains below it while the query
// is active.
func TestArbiterMinWorkersFloor(t *testing.T) {
	a := mustArbiter(t, ArbiterConfig{MaxWorkers: 8})
	loads := []QueryLoad{{Query: 0, Weight: 1,
		Policy:    &Policy{MinWorkers: 2},
		Remaining: map[int]int64{1: 10}}}
	dec := a.StepWith(0, loads, arbEst(1000))
	if dec.Action != ScaleUp || dec.Delta != 2 {
		t.Fatalf("decision = %+v (%s), want +2 to the floor", dec, dec.Reason)
	}
	a.WorkerLaunched(0, 1000)
	a.WorkerLaunched(0, 1001)
	// Massive surplus, but the floor holds.
	dec = a.StepWith(10*time.Second, loads, arbEst(1000))
	if dec.Action != Hold || !strings.Contains(dec.Reason, "floor") {
		t.Fatalf("decision = %+v (%s), want hold at floor", dec, dec.Reason)
	}
}

// TestArbiterAggregateBudgetForcesDrain: with every policied query budgeted,
// a projection over the summed budgets forces a drain even though each
// deadline is still at risk.
func TestArbiterAggregateBudgetForcesDrain(t *testing.T) {
	a := mustArbiter(t, ArbiterConfig{MaxWorkers: 8,
		Pricing: costmodel.DefaultPricing2011()}) // $0.10 per instance-hour
	for site := 1000; site < 1004; site++ {
		a.WorkerLaunched(0, site)
	}
	loads := []QueryLoad{
		{Query: 0, Weight: 1, Policy: &Policy{Deadline: time.Minute, Budget: 0.05},
			Remaining: map[int]int64{1: 1 << 30}},
		{Query: 1, Weight: 1, Policy: &Policy{Deadline: time.Minute, Budget: 0.05},
			Remaining: map[int]int64{1: 1 << 30}},
	}
	// Four instance-hours of projection dwarfs the summed $0.10.
	dec := a.StepWith(30*time.Second, loads, arbEst(1000))
	if dec.Action != ScaleDown || dec.Delta != -1 {
		t.Fatalf("decision = %+v (%s), want forced single-site drain", dec, dec.Reason)
	}
	if !strings.Contains(dec.Reason, "budget") {
		t.Errorf("reason = %q, want budget explanation", dec.Reason)
	}
}

// TestArbiterPerQueryBudgetBindsAlone: one unlimited query lifts the
// aggregate cap, but the budgeted query's own attributed share still forces
// the drain.
func TestArbiterPerQueryBudgetBindsAlone(t *testing.T) {
	a := mustArbiter(t, ArbiterConfig{MaxWorkers: 8,
		Pricing: costmodel.DefaultPricing2011()})
	for site := 1000; site < 1004; site++ {
		a.WorkerLaunched(0, site)
	}
	loads := []QueryLoad{
		{Query: 0, Weight: 1, Policy: &Policy{Budget: 0.01},
			Remaining: map[int]int64{1: 1 << 30}},
		{Query: 1, Weight: 1, Policy: &Policy{}, // unlimited
			Remaining: map[int]int64{1: 1 << 30}},
	}
	dec := a.StepWith(30*time.Second, loads, arbEst(1000))
	if dec.Action != ScaleDown {
		t.Fatalf("decision = %+v (%s), want drain on query 0's budget", dec, dec.Reason)
	}
	if !strings.Contains(dec.Reason, "query 0") {
		t.Errorf("reason = %q, want per-query attribution", dec.Reason)
	}
}

// TestArbiterIdleDrainsWholeFleet: once every query has drained (empty
// loads), one forced decision releases the entire fleet — the zero-estimate
// renewal filter must not strand workers.
func TestArbiterIdleDrainsWholeFleet(t *testing.T) {
	a := mustArbiter(t, ArbiterConfig{MaxWorkers: 8})
	for site := 1000; site < 1003; site++ {
		a.WorkerLaunched(0, site)
	}
	dec := a.StepWith(time.Minute, nil, arbEst(1))
	if dec.Action != ScaleDown || dec.Delta != -3 {
		t.Fatalf("decision = %+v (%s), want drain of all 3", dec, dec.Reason)
	}
	if len(dec.Sites) != 3 {
		t.Errorf("sites = %v, want all three", dec.Sites)
	}
	// Workers gone: subsequent idle ticks hold.
	for _, s := range dec.Sites {
		a.WorkerStopped(time.Minute+time.Second, s)
	}
	dec = a.StepWith(2*time.Minute, nil, arbEst(1))
	if dec.Action != Hold {
		t.Errorf("idle empty-fleet decision = %+v", dec)
	}
}

// TestArbiterCostAttributionByWeight: realized spend splits over the active
// queries proportionally to fair-share weight, and sums to the realized
// total while queries remain active.
func TestArbiterCostAttributionByWeight(t *testing.T) {
	a := mustArbiter(t, ArbiterConfig{MaxWorkers: 8,
		Pricing: costmodel.DefaultPricingCurrent()})
	a.WorkerLaunched(0, 1000)
	loads := []QueryLoad{
		{Query: 0, Weight: 3, Remaining: map[int]int64{1: 100}},
		{Query: 1, Weight: 1, Remaining: map[int]int64{1: 100}},
	}
	a.StepWith(10*time.Minute, loads, arbEst(0.001))
	by := a.CostByQuery()
	total := a.InstanceCost(10 * time.Minute)
	if total <= 0 {
		t.Fatal("no realized cost after 10 minutes")
	}
	sum := by[0] + by[1]
	if diff := sum - total; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("attributed %v sums to %g, realized %g", by, sum, total)
	}
	if ratio := by[0] / by[1]; ratio < 2.99 || ratio > 3.01 {
		t.Errorf("attribution ratio = %g, want 3 (weights 3:1)", ratio)
	}
}

// TestArbiterScaleUpCooldown: a second scale-up inside the cooldown window
// is suppressed, and says why.
func TestArbiterScaleUpCooldown(t *testing.T) {
	a := mustArbiter(t, ArbiterConfig{MaxWorkers: 8, ScaleUpCooldown: time.Minute})
	loads := []QueryLoad{{Query: 0, Weight: 1,
		Policy:    &Policy{Deadline: 100 * time.Second},
		Remaining: map[int]int64{1: 240}}}
	dec := a.StepWith(0, loads, arbEst(1))
	if dec.Action != ScaleUp {
		t.Fatalf("first decision = %+v (%s)", dec, dec.Reason)
	}
	dec = a.StepWith(10*time.Second, loads, arbEst(1))
	if dec.Action != Hold || !strings.Contains(dec.Reason, "cooldown") {
		t.Fatalf("second decision = %+v (%s), want cooldown hold", dec, dec.Reason)
	}
}

// TestArbiterDrainHysteresisProtectsDeadlines: a renewal-due surplus worker
// is kept when draining it would put a deadline's doubled estimate past the
// target.
func TestArbiterDrainHysteresisProtectsDeadlines(t *testing.T) {
	a := mustArbiter(t, ArbiterConfig{MaxWorkers: 8,
		Pricing: costmodel.DefaultPricingCurrent()}) // per-second renewals
	a.WorkerLaunched(0, 1000)
	a.WorkerLaunched(0, 1001)
	// est(2 workers) = 300/(1+2) = 100s ≤ target 105s: deadline met, no
	// scale-up. est(1 worker) = 150s; doubled = 300s > 105s remaining →
	// hysteresis keeps the worker despite its renewal being due.
	loads := []QueryLoad{{Query: 0, Weight: 1,
		Policy:    &Policy{Deadline: 120 * time.Second},
		Remaining: map[int]int64{1: 300}}}
	dec := a.StepWith(0, loads, arbEst(1))
	if dec.Action != Hold || !strings.Contains(dec.Reason, "risk a deadline") {
		t.Fatalf("decision = %+v (%s), want hysteresis hold", dec, dec.Reason)
	}
}

// TestArbiterDecisionLogDeterministic: identical input streams produce
// byte-identical formatted decision logs — the replay parity contract the
// simulator gate relies on.
func TestArbiterDecisionLogDeterministic(t *testing.T) {
	run := func() string {
		a := mustArbiter(t, ArbiterConfig{MaxWorkers: 4,
			Pricing: costmodel.DefaultPricingCurrent()})
		rem := int64(600)
		site := 1000
		for tick := 0; tick < 20 && rem > 0; tick++ {
			now := time.Duration(tick) * 2 * time.Second
			loads := []QueryLoad{
				{Query: 0, Weight: 2, Policy: &Policy{Deadline: 90 * time.Second},
					Remaining: map[int]int64{1: rem}},
				{Query: 1, Weight: 1, Remaining: map[int]int64{2: rem / 2}},
			}
			dec := a.StepWith(now, loads, arbEst(1))
			if dec.Action == ScaleUp {
				for i := 0; i < dec.Delta; i++ {
					a.WorkerLaunched(now, site)
					site++
				}
			}
			for _, s := range dec.Sites {
				a.WorkerStopped(now+time.Second, s)
			}
			rem -= int64(10 * (1 + len(a.ActiveSites())))
		}
		return FormatDecisions(a.Decisions())
	}
	first := run()
	if first == "" {
		t.Fatal("no non-hold decisions exercised")
	}
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", i, got, first)
		}
	}
}

// ---------------------------------------------------------------------------
// The N=1 session: every single-query behaviour of the fleet-sizing loop,
// asserted against an arbiter serving one query.

// oneQuery is the load slice of a one-query session: the query carries p and
// has work left (the synthetic estimators below ignore how much).
func oneQuery(p Policy) []QueryLoad {
	return []QueryLoad{{Query: 0, Weight: 1, Policy: &p, Remaining: map[int]int64{0: 1}}}
}

// flatEst is an estimator whose prediction halves with each added
// worker-equivalent: est(w) = base / (1 + w).
func flatEst(base time.Duration) func(map[int]int64, int) (time.Duration, bool) {
	return func(_ map[int]int64, workers int) (time.Duration, bool) {
		return base / time.Duration(1+workers), true
	}
}

// constEst predicts d at any fleet size.
func constEst(d time.Duration) func(map[int]int64, int) (time.Duration, bool) {
	return func(map[int]int64, int) (time.Duration, bool) { return d, true }
}

// TestBillingQuantumScaleDown is the satellite contract of
// DefaultPricingCurrent: identical fleet, identical surplus, identical
// deadline — the only difference is the billing quantum. Per-second billing
// drains the surplus workers immediately (every one of them is a second away
// from paying again); whole-hour billing holds them, because their current
// paid-for hour already covers the short remaining horizon and draining buys
// nothing.
func TestBillingQuantumScaleDown(t *testing.T) {
	cases := []struct {
		name      string
		pricing   costmodel.Pricing
		wantDrain bool
	}{
		{"per-second billing drains aggressively", costmodel.DefaultPricingCurrent(), true},
		{"whole-hour billing holds paid-through workers", costmodel.DefaultPricing2011(), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := mustArbiter(t, ArbiterConfig{MaxWorkers: 4, Pricing: tc.pricing})
			for site := 1000; site < 1003; site++ {
				a.WorkerLaunched(0, site)
			}
			// Two minutes in, one minute of work left at any fleet size:
			// a huge surplus, no deadline risk whatsoever.
			dec := a.StepWith(2*time.Minute, oneQuery(Policy{Deadline: 20 * time.Minute}), constEst(time.Minute))
			if got := dec.Action == ScaleDown; got != tc.wantDrain {
				t.Fatalf("action = %v (%s), want drain=%v", dec.Action, dec.Reason, tc.wantDrain)
			}
			if tc.wantDrain {
				if len(dec.Sites) != 1 || dec.Sites[0] != 1000 {
					t.Errorf("drained sites = %v, want the soonest-renewal worker [1000]", dec.Sites)
				}
			} else if !strings.Contains(dec.Reason, "paid through") {
				t.Errorf("hold reason = %q, want a paid-through-the-horizon explanation", dec.Reason)
			}
		})
	}
}

func TestScaleUpPicksSmallestFleetMeetingDeadline(t *testing.T) {
	a := mustArbiter(t, ArbiterConfig{MaxWorkers: 8})
	// est(w) = 240s/(1+w): w=0 misses, w=2 gives 80s ≤ target 87.5s.
	dec := a.StepWith(0, oneQuery(Policy{Deadline: 100 * time.Second}), flatEst(240*time.Second))
	if dec.Action != ScaleUp || dec.Delta != 2 || dec.Workers != 2 {
		t.Fatalf("decision = %+v, want scale-up to 2 workers", dec)
	}
}

// TestLaunchLeadTimeProvisionsAhead: with est(w) = 240s/(1+w) and a 100s
// deadline (target 87.5s), boot time shifts the fleet the arbiter must
// buy — the deadline test charges every new worker its lead before it
// contributes.
func TestLaunchLeadTimeProvisionsAhead(t *testing.T) {
	cases := []struct {
		name       string
		lead       time.Duration
		estBase    time.Duration
		wantAction Action
		wantFleet  int
	}{
		// No lead: w=2 gives 80s ≤ 87.5s.
		{"instant boot picks 2", 0, 240 * time.Second, ScaleUp, 2},
		// 10s lead: w=2 gives 10+80 = 90s > 87.5s; w=3 gives 10+60 = 70s.
		{"10s boot needs 3", 10 * time.Second, 240 * time.Second, ScaleUp, 3},
		// 30s lead: w=3 gives 30+60 = 90s > 87.5s; w=4 gives 30+48 = 78s.
		{"30s boot needs 4", 30 * time.Second, 240 * time.Second, ScaleUp, 4},
		// 110s lead on a 120s job: no fleet meets the deadline, and even
		// est(8) = 13.3s cannot beat estNow = 120s once the boot is charged
		// (110+13.3 > 120), so best-effort growth is pointless too.
		{"boot longer than any improvement holds", 110 * time.Second, 120 * time.Second, Hold, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := mustArbiter(t, ArbiterConfig{MaxWorkers: 8, LaunchLeadTime: tc.lead})
			dec := a.StepWith(0, oneQuery(Policy{Deadline: 100 * time.Second}), flatEst(tc.estBase))
			if dec.Action != tc.wantAction {
				t.Fatalf("action = %v (%s), want %v", dec.Action, dec.Reason, tc.wantAction)
			}
			if tc.wantAction == ScaleUp && dec.Workers != tc.wantFleet {
				t.Errorf("fleet = %d (%s), want %d", dec.Workers, dec.Reason, tc.wantFleet)
			}
			if tc.wantAction == ScaleUp && dec.Estimate < tc.lead {
				t.Errorf("estimate %v does not include the %v boot", dec.Estimate, tc.lead)
			}
		})
	}
	if _, err := NewArbiter(ArbiterConfig{LaunchLeadTime: -time.Second}, nil); err == nil {
		t.Error("negative LaunchLeadTime accepted")
	}
}

func TestScaleUpCooldown(t *testing.T) {
	a := mustArbiter(t, ArbiterConfig{MaxWorkers: 8, ScaleUpCooldown: 30 * time.Second})
	loads := oneQuery(Policy{Deadline: 100 * time.Second})
	if dec := a.StepWith(0, loads, flatEst(240*time.Second)); dec.Action != ScaleUp {
		t.Fatalf("first tick: %+v, want scale-up", dec)
	}
	// Workers not yet registered (launch pending), estimate unchanged: a
	// second tick inside the cooldown must hold rather than double down.
	if dec := a.StepWith(10*time.Second, loads, flatEst(240*time.Second)); dec.Action != Hold {
		t.Fatalf("tick inside cooldown: %+v, want hold", dec)
	}
	if dec := a.StepWith(40*time.Second, loads, flatEst(240*time.Second)); dec.Action != ScaleUp {
		t.Fatalf("tick after cooldown: %+v, want scale-up", dec)
	}
}

func TestScaleDownCooldownSymmetric(t *testing.T) {
	a := mustArbiter(t, ArbiterConfig{MaxWorkers: 8, ScaleUpCooldown: 30 * time.Second,
		Pricing: costmodel.DefaultPricingCurrent()})
	loads := oneQuery(Policy{Deadline: time.Hour})
	if dec := a.StepWith(0, loads, flatEst(2*time.Hour)); dec.Action != ScaleUp {
		t.Fatal("expected initial scale-up")
	}
	a.WorkerLaunched(time.Second, 1000)
	a.WorkerLaunched(time.Second, 1001)
	// The estimate swings straight back: inside the cooldown the freshly
	// launched workers must not be churned away.
	dec := a.StepWith(10*time.Second, loads, constEst(5*time.Second))
	if dec.Action != Hold || !strings.Contains(dec.Reason, "cooldown") {
		t.Fatalf("decision = %+v, want cooldown hold", dec)
	}
	if dec := a.StepWith(50*time.Second, loads, constEst(5*time.Second)); dec.Action != ScaleDown {
		t.Fatalf("decision after cooldown = %+v, want scale-down", dec)
	}
}

func TestBudgetForcesDrainDespiteDeadline(t *testing.T) {
	a := mustArbiter(t, ArbiterConfig{MaxWorkers: 8, Pricing: costmodel.DefaultPricing2011()})
	a.WorkerLaunched(0, 1000)
	a.WorkerLaunched(0, 1001)
	// Deadline is hopeless AND the projection (two m1.large hours) is far
	// past the budget: the budget wins.
	dec := a.StepWith(time.Second, oneQuery(Policy{Deadline: 10 * time.Second, Budget: 0.0001}), constEst(time.Hour))
	if dec.Action != ScaleDown || !strings.Contains(dec.Reason, "budget") {
		t.Fatalf("decision = %+v, want budget-forced drain", dec)
	}
}

func TestBudgetBlocksScaleUp(t *testing.T) {
	a := mustArbiter(t, ArbiterConfig{MaxWorkers: 8, Pricing: costmodel.DefaultPricing2011()})
	// Any scale-up bills at least one whole instance-hour — far past $0.01.
	dec := a.StepWith(0, oneQuery(Policy{Deadline: 100 * time.Second, Budget: 0.01}), flatEst(240*time.Second))
	if dec.Action != Hold || !strings.Contains(dec.Reason, "no affordable") {
		t.Fatalf("decision = %+v, want unaffordable hold", dec)
	}
}

func TestBestEffortGrowthWhenDeadlineUnreachable(t *testing.T) {
	a := mustArbiter(t, ArbiterConfig{MaxWorkers: 4})
	// Even MaxWorkers cannot meet the deadline, but more workers still
	// shrink the estimate: grow to the cap rather than give up.
	dec := a.StepWith(0, oneQuery(Policy{Deadline: 10 * time.Second}), flatEst(10*time.Minute))
	if dec.Action != ScaleUp || dec.Workers != 4 {
		t.Fatalf("decision = %+v, want best-effort growth to MaxWorkers", dec)
	}
	if !strings.Contains(dec.Reason, "best effort") {
		t.Errorf("reason = %q, want best-effort", dec.Reason)
	}
}

func TestMinWorkersFloor(t *testing.T) {
	a := mustArbiter(t, ArbiterConfig{Pricing: costmodel.DefaultPricingCurrent()})
	a.WorkerLaunched(0, 1000)
	// No deadline → pure cost minimization, but the floor holds the worker.
	dec := a.StepWith(time.Minute, oneQuery(Policy{MinWorkers: 1, MaxWorkers: 4}), constEst(time.Second))
	if dec.Action != Hold || !strings.Contains(dec.Reason, "floor") {
		t.Fatalf("decision = %+v, want floor hold", dec)
	}
}

func TestInstanceCostQuantum(t *testing.T) {
	pr := costmodel.DefaultPricing2011() // $0.34/h, 2 cores/instance, 1h quantum
	a := mustArbiter(t, ArbiterConfig{MaxWorkers: 4, Pricing: pr})
	a.WorkerLaunched(0, 1000)
	a.WorkerStopped(90*time.Minute, 1000) // 1.5h → billed 2h
	a.WorkerLaunched(0, 1001)
	a.WorkerStopped(time.Second, 1001) // 1s → minimum one quantum
	// Env is nil → one worker bills CoresPerInstance cores = 1 instance.
	got := a.InstanceCost(2 * time.Hour)
	want := 2*0.34 + 1*0.34
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("InstanceCost = %.4f, want %.4f", got, want)
	}
}

func TestEpisodeReuseAfterStop(t *testing.T) {
	a := mustArbiter(t, ArbiterConfig{MaxWorkers: 4})
	a.WorkerLaunched(0, 1000)
	a.WorkerStopped(time.Minute, 1000)
	a.WorkerLaunched(2*time.Minute, 1001)
	sites := a.ActiveSites()
	if len(sites) != 1 || sites[0] != 1001 {
		t.Fatalf("ActiveSites = %v, want [1001]", sites)
	}
	if n := len(a.Decisions()); n != 0 {
		t.Fatalf("decision log has %d entries before any tick", n)
	}
}

// TestArbiterAnchorsDeadlineAtPreviousTick: a query's deadline runs from the
// tick before the one that first sees it — the admission happened somewhere
// in that window, and outcomes are judged from admission. On a 5s cadence
// with an 80s deadline (margined 70s), a query present at the first tick is
// steered at 70s and one first seen at the second tick at 5s + 70s.
func TestArbiterAnchorsDeadlineAtPreviousTick(t *testing.T) {
	const tick = 5 * time.Second
	loads := oneQuery(Policy{Deadline: 80 * time.Second})
	cases := []struct {
		name      string
		firstSeen int // 1-based tick that first carries the query
		est       time.Duration
		want      Action
	}{
		{"first tick, finishing exactly at 7/8·deadline holds", 1, 65 * time.Second, Hold},
		{"first tick, 1ms past 7/8·deadline is at risk", 1, 65*time.Second + time.Millisecond, ScaleUp},
		{"second tick, finishing exactly at 5s + 7/8·deadline holds", 2, 65 * time.Second, Hold},
		{"second tick, 1ms past 5s + 7/8·deadline is at risk", 2, 65*time.Second + time.Millisecond, ScaleUp},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := mustArbiter(t, ArbiterConfig{MaxWorkers: 8})
			// est(0) = tc.est; any burst worker finishes the job in a second.
			raw := func(_ map[int]int64, workers int) (time.Duration, bool) {
				if workers == 0 {
					return tc.est, true
				}
				return time.Second, true
			}
			for i := 1; i < tc.firstSeen; i++ {
				a.StepWith(time.Duration(i)*tick, nil, raw)
			}
			dec := a.StepWith(time.Duration(tc.firstSeen)*tick, loads, raw)
			if dec.Action != tc.want {
				t.Fatalf("decision = %+v (%s), want %v", dec, dec.Reason, tc.want)
			}
		})
	}
}

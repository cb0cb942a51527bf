package experiments

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/elastic"
	"repro/internal/hybridsim"
)

// multiPoint runs the standard mixed-policy workload once and shares it
// between the gate tests (the determinism test re-runs it independently).
var multiPoint = sync.OnceValues(func() (ElasticMultiPoint, error) {
	return RunElasticMultiPoint(KMeans, costmodel.DefaultPricingCurrent(), DefaultMultiPolicyQueries())
})

// TestElasticMultiOutcomes is the mixed-policy acceptance gate: one shared
// fleet, sized by the arbiter, satisfies every query's own policy at once —
// the tight deadline is met, the budgeted query stays within its cap, the
// unpolicied query completes on fair share, and the attributed spend
// reconciles with the fleet bill.
func TestElasticMultiOutcomes(t *testing.T) {
	p, err := multiPoint()
	if err != nil {
		t.Fatal(err)
	}
	if p.ScaleUps == 0 {
		t.Fatalf("arbiter never scaled up — slowdown not biting:\n%s", FormatElasticMulti(&p))
	}
	var attributed float64
	for _, q := range p.Queries {
		if q.Finish <= 0 {
			t.Errorf("query %s never finished", q.Name)
		}
		if !q.MetDeadline {
			t.Errorf("query %s missed its %v deadline (finish %.1fs)",
				q.Name, q.Policy.Deadline, q.Finish.Seconds())
		}
		if q.Policy != nil && q.Policy.Budget > 0 && q.AttributedCost > q.Policy.Budget {
			t.Errorf("query %s attributed $%.4f exceeds its $%.2f budget",
				q.Name, q.AttributedCost, q.Policy.Budget)
		}
		attributed += q.AttributedCost
	}
	// Attribution never invents money: the per-query shares sum to at most
	// the fleet bill (the final drain tail stays unattributed).
	if attributed > p.Cost.Instances+1e-9 {
		t.Errorf("attributed costs sum to $%.6f, exceeding the $%.6f fleet bill",
			attributed, p.Cost.Instances)
	}
	t.Logf("\n%s", FormatElasticMulti(&p))
}

// TestElasticMultiCostAgreement is the cost-exactness gate for the arbiter:
// its own per-episode, quantum-billed accounting must match an independent
// repricing of the simulator's realized burst-worker lifetimes.
func TestElasticMultiCostAgreement(t *testing.T) {
	p, err := multiPoint()
	if err != nil {
		t.Fatal(err)
	}
	realized := RealizedInstanceCost(costmodel.DefaultPricingCurrent(), p.Clusters, p.Makespan)
	if math.Abs(realized-p.Cost.Instances) > 1e-9 {
		t.Errorf("arbiter billed $%.6f instances, realized lifetimes price to $%.6f",
			p.Cost.Instances, realized)
	}
}

// TestElasticMultiDeterministic re-runs the whole mixed-policy point and
// demands byte-identical renderings — virtual clock, fixed seed, and a
// pure-policy arbiter leave nothing to drift.
func TestElasticMultiDeterministic(t *testing.T) {
	p1, err := multiPoint()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := RunElasticMultiPoint(KMeans, costmodel.DefaultPricingCurrent(), DefaultMultiPolicyQueries())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := FormatElasticMulti(&p1), FormatElasticMulti(&p2); a != b {
		t.Errorf("multi-point rendering differs across reruns:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if a, b := ElasticMultiCSV(&p1), ElasticMultiCSV(&p2); a != b {
		t.Errorf("multi-point CSV differs across reruns:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// replayParity pins the sim↔live parity contract on one scenario: the
// arbiter is a pure function of its input stream. The simulated run's inputs
// — every tick's (now, per-query loads) snapshot and every worker
// launch/drain event — are recorded and replayed into a FRESH arbiter, which
// must reproduce the decision log byte for byte. A live Session feeding the
// same head.QueryLoads snapshots therefore scales identically.
func replayParity(t *testing.T, app App, acfg elastic.ArbiterConfig, queries []MultiPolicyQuery, opts ElasticOptions) {
	t.Helper()
	arb, _, mc, err := arbiterSim(app, acfg, queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	type event struct {
		kind  int // 0 tick, 1 launch, 2 drained
		now   time.Duration
		site  int
		loads []elastic.QueryLoad
	}
	var events []event
	es := mc.Elastic
	decide, launch, drained := es.Decide, es.OnLaunch, es.OnDrained
	es.Decide = func(now time.Duration, loads []elastic.QueryLoad, workers []int) hybridsim.ElasticDecision {
		cp := make([]elastic.QueryLoad, 0, len(loads))
		for _, l := range loads {
			rem := make(map[int]int64, len(l.Remaining))
			for s, b := range l.Remaining {
				rem[s] = b
			}
			cp = append(cp, elastic.QueryLoad{
				Query: l.Query, Weight: l.Weight,
				Policy: queries[l.Query].Policy, Remaining: rem,
			})
		}
		events = append(events, event{kind: 0, now: now, loads: cp})
		return decide(now, loads, workers)
	}
	es.OnLaunch = func(now time.Duration, site int) {
		events = append(events, event{kind: 1, now: now, site: site})
		launch(now, site)
	}
	es.OnDrained = func(now time.Duration, site int) {
		events = append(events, event{kind: 2, now: now, site: site})
		drained(now, site)
	}
	if _, err := hybridsim.RunMulti(mc); err != nil {
		t.Fatal(err)
	}

	replay, _, _, err := arbiterSim(app, acfg, queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		switch ev.kind {
		case 0:
			replay.Step(ev.now, ev.loads)
		case 1:
			replay.WorkerLaunched(ev.now, ev.site)
		case 2:
			replay.WorkerStopped(ev.now, ev.site)
		}
	}
	a := elastic.FormatDecisions(arb.Decisions())
	b := elastic.FormatDecisions(replay.Decisions())
	if a == "" {
		t.Fatal("simulated run produced no scaling decisions")
	}
	if a != b {
		t.Errorf("replayed decisions diverge:\n--- simulated ---\n%s\n--- replayed ---\n%s", a, b)
	}
}

// TestElasticDecisionParityReplay runs the record-and-replay parity check on
// the single-query run, on the staged run (cache model, launch delay and lead
// time in play), and on the mixed-policy three-query session.
func TestElasticDecisionParityReplay(t *testing.T) {
	acfg := DefaultMultiArbiterConfig(costmodel.DefaultPricingCurrent())
	stagedCfg := acfg
	stagedCfg.LaunchLeadTime = stagedKNNOpts.LaunchDelay
	one := func(deadline time.Duration) []MultiPolicyQuery {
		return []MultiPolicyQuery{{Policy: &elastic.Policy{Deadline: deadline}}}
	}
	rows := []struct {
		name    string
		app     App
		acfg    elastic.ArbiterConfig
		queries []MultiPolicyQuery
		opts    ElasticOptions
	}{
		{"single", KMeans, acfg, one(150 * time.Second), ElasticOptions{}},
		{"staged", KNN, stagedCfg, one(120 * time.Second), stagedKNNOpts},
		{"multi", KMeans, acfg, DefaultMultiPolicyQueries(), ElasticOptions{}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			replayParity(t, row.app, row.acfg, row.queries, row.opts)
		})
	}
}

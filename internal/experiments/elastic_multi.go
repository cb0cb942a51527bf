package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/costmodel"
	"repro/internal/elastic"
	"repro/internal/hybridsim"
)

// Multi-query arbiter experiments: several concurrent queries, each with its
// own deadline/budget policy, share ONE burst fleet sized by the session-wide
// elastic.Arbiter. The scenario injects the standard mid-run slowdown and
// reports per-query outcomes (deadline met, attributed spend) next to the
// fleet-level decision log — the simulated twin of a live Session with
// Step.Elastic set per query.

// MultiPolicyQuery is one query of a mixed-policy workload: its display name,
// application (empty runs the workload's base app), fair-share weight, and
// elastic policy (nil rides along unpolicied — it gets fair-share capacity
// but never justifies fleet growth on its own).
type MultiPolicyQuery struct {
	Name   string
	App    App
	Weight int
	Policy *elastic.Policy
}

// MultiQueryOutcome is one query's realized result under the arbiter.
type MultiQueryOutcome struct {
	Name   string
	Weight int
	Policy *elastic.Policy
	// Finish is when the head merged the query's last reduction object.
	Finish time.Duration
	// MetDeadline is true for unpolicied / deadline-free queries.
	MetDeadline bool
	// AttributedCost is the arbiter's fair-share attribution of the realized
	// instance spend to this query (what elastic_cost_dollars{query=...}
	// exports live).
	AttributedCost float64
	// Granted counts jobs handed out for this query.
	Granted int
}

// ElasticMultiPoint is one simulated mixed-policy run under the arbiter.
type ElasticMultiPoint struct {
	Queries  []MultiQueryOutcome
	Makespan time.Duration
	// PeakWorkers is the largest concurrent burst fleet; ScaleUps and
	// ScaleDowns count arbiter decisions.
	PeakWorkers int
	ScaleUps    int
	ScaleDowns  int
	// Decisions is the arbiter's full decision log.
	Decisions []elastic.Decision
	// Cost is the realized bill: Instances from the arbiter's own episode
	// accounting, Transfer/Requests priced from the realized traffic.
	Cost costmodel.Cost
	// Clusters is the simulator's realized per-cluster footprint.
	Clusters []hybridsim.ClusterResult
	// Stage is the realized cache activity of a staged run; nil otherwise.
	Stage *hybridsim.StageStats
}

// DefaultMultiPolicyQueries is the standard mixed-policy 3-query workload:
// a double-weight query with a tight deadline, a budget-capped query with a
// lax deadline, and an unpolicied query riding along on fair share.
func DefaultMultiPolicyQueries() []MultiPolicyQuery {
	return []MultiPolicyQuery{
		{Name: "tight", Weight: 2, Policy: &elastic.Policy{Deadline: 240 * time.Second}},
		{Name: "budgeted", Weight: 1, Policy: &elastic.Policy{Deadline: 420 * time.Second, Budget: 0.15}},
		{Name: "rideshare", Weight: 1},
	}
}

// DefaultMultiArbiterConfig is the arbiter configuration every elastic
// experiment runs under — the single-query sweep and the multi-query
// workload alike: 5s cadence, three-tick cooldown, 8-worker session cap.
func DefaultMultiArbiterConfig(pricing costmodel.Pricing) elastic.ArbiterConfig {
	return elastic.ArbiterConfig{
		Interval:        5 * time.Second,
		ScaleUpCooldown: 15 * time.Second,
		MaxWorkers:      8,
		Pricing:         pricing,
	}
}

// RunElasticMultiPoint simulates the mixed-policy workload of app under one
// session-wide arbiter on the default cadence, with the standard slowdown
// injected, and prices the run.
func RunElasticMultiPoint(app App, pricing costmodel.Pricing, queries []MultiPolicyQuery) (ElasticMultiPoint, error) {
	return RunElasticMultiPointWith(app, DefaultMultiArbiterConfig(pricing), queries, ElasticOptions{})
}

// arbiterSim builds the arbiter-in-simulator run every elastic experiment
// goes through: an arbiter configured with acfg over app's calibrated
// deployment (plus opts' extensions), bound into a simulation of queries
// with the standard slowdown injected. base is the deployment's static
// config.
func arbiterSim(app App, acfg elastic.ArbiterConfig, queries []MultiPolicyQuery,
	opts ElasticOptions) (arb *elastic.Arbiter, base hybridsim.Config, mc hybridsim.Config, err error) {
	if len(queries) == 0 {
		return nil, base, mc, fmt.Errorf("experiments: at least one query is required")
	}
	env := elasticEnvWith(app, opts)
	if arb, err = elastic.NewArbiter(acfg, &env); err != nil {
		return nil, base, mc, err
	}
	base = env.Base
	mc = base
	mc.Slowdowns = []hybridsim.Slowdown{elasticSlowdown(app)}
	mc.Queries = nil
	for _, q := range queries {
		// A query may run a different application over the shared deployment
		// (the RunMultiTraced pattern: first app's topology, each query its
		// own index/placement/engine).
		qcfg := base
		if q.App != "" && q.App != app {
			qcfg = elasticEnv(q.App).Base
		}
		mq := qcfg.Queries[0]
		mq.Name, mq.Weight, mq.Iterations, mq.Policy = q.Name, q.Weight, opts.Iterations, q.Policy
		mc.Queries = append(mc.Queries, mq)
	}
	mc.Elastic = arb.SimElastic()
	mc.Elastic.LaunchDelay = opts.LaunchDelay
	return arb, base, mc, nil
}

// RunElasticMultiPointWith is RunElasticMultiPoint under an explicit arbiter
// configuration and the selected extensions (stage cache, iterations, worker
// boot time). Deterministic: fixed seed, virtual clock, pure-policy arbiter.
func RunElasticMultiPointWith(app App, acfg elastic.ArbiterConfig, queries []MultiPolicyQuery,
	opts ElasticOptions) (ElasticMultiPoint, error) {
	arb, cfg, mc, err := arbiterSim(app, acfg, queries, opts)
	if err != nil {
		return ElasticMultiPoint{}, err
	}
	res, err := hybridsim.Run(mc)
	if err != nil {
		return ElasticMultiPoint{}, fmt.Errorf("experiments: elastic %s: %w", app, err)
	}
	p := ElasticMultiPoint{
		Makespan:  res.Total,
		Decisions: arb.Decisions(),
		Clusters:  res.Clusters,
		Stage:     res.Stage,
	}
	costByQ := arb.CostByQuery()
	for qi, q := range queries {
		qr := res.Queries[qi]
		met := q.Policy == nil || q.Policy.Deadline <= 0 || qr.Finish <= q.Policy.Deadline
		p.Queries = append(p.Queries, MultiQueryOutcome{
			Name: q.Name, Weight: q.Weight, Policy: q.Policy,
			Finish: qr.Finish, MetDeadline: met,
			AttributedCost: costByQ[qi], Granted: qr.Granted,
		})
	}
	for _, d := range p.Decisions {
		switch d.Action {
		case elastic.ScaleUp:
			p.ScaleUps++
		case elastic.ScaleDown:
			p.ScaleDowns++
		}
		if d.Workers > p.PeakWorkers {
			p.PeakWorkers = d.Workers
		}
	}
	// Burst instances as the arbiter billed them (per launch episode,
	// rounded to the billing quantum) on top of the metered footprint.
	cost, err := arb.Config().Pricing.Price(costmodel.Meter(cfg, res, siteCloud))
	if err != nil {
		return ElasticMultiPoint{}, err
	}
	cost.Instances += arb.InstanceCost(res.Total)
	p.Cost = cost
	return p, nil
}

// RealizedInstanceCost independently reprices burst-worker instance time from
// the SIMULATOR's realized cluster lifetimes — the second bookkeeper the
// cost-agreement gate checks the arbiter's own episode accounting against.
func RealizedInstanceCost(pricing costmodel.Pricing, clusters []hybridsim.ClusterResult, makespan time.Duration) float64 {
	var total float64
	for _, c := range clusters {
		if !c.Burst {
			continue
		}
		end := c.Drained
		if end == 0 {
			end = makespan // ran to the end of the simulation
		}
		life := end - c.Launched
		if q := pricing.BillingQuantum; q > 0 {
			if life <= 0 {
				life = q
			} else {
				life = ((life + q - 1) / q) * q
			}
		}
		n := (c.Cores + pricing.CoresPerInstance - 1) / pricing.CoresPerInstance
		total += float64(n) * life.Hours() * pricing.InstancePerHour
	}
	return total
}

// FormatElasticMulti renders one mixed-policy run: per-query outcome table
// plus the arbiter's decision log. Deterministic byte-for-byte for identical
// inputs.
func FormatElasticMulti(p *ElasticMultiPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Elastic multi-query arbiter: %d queries, one shared fleet (peak %d workers, %d ups / %d downs, makespan %.1fs, $%.4f)\n",
		len(p.Queries), p.PeakWorkers, p.ScaleUps, p.ScaleDowns, p.Makespan.Seconds(), p.Cost.Total())
	fmt.Fprintf(&b, "%-10s %6s %-10s %-10s %10s %5s %10s %8s\n",
		"query", "weight", "deadline", "budget", "finish", "met", "attr $", "granted")
	for _, q := range p.Queries {
		deadline, budget := "-", "-"
		if q.Policy != nil && q.Policy.Deadline > 0 {
			deadline = q.Policy.Deadline.String()
		}
		if q.Policy != nil && q.Policy.Budget > 0 {
			budget = fmt.Sprintf("$%.2f", q.Policy.Budget)
		}
		met := ""
		if q.MetDeadline {
			met = "yes"
		}
		fmt.Fprintf(&b, "%-10s %6d %-10s %-10s %9.1fs %5s %10.4f %8d\n",
			q.Name, q.Weight, deadline, budget, q.Finish.Seconds(), met, q.AttributedCost, q.Granted)
	}
	if log := elastic.FormatDecisions(p.Decisions); log != "" {
		fmt.Fprintf(&b, "\narbiter decisions:\n%s", log)
	}
	return b.String()
}

// ElasticMultiCSV renders the per-query outcomes as CSV for plotting.
func ElasticMultiCSV(p *ElasticMultiPoint) string {
	var b strings.Builder
	b.WriteString("query,weight,deadline_s,budget,finish_s,met,attributed_cost,granted\n")
	for _, q := range p.Queries {
		deadline, budget := 0.0, 0.0
		if q.Policy != nil {
			deadline, budget = q.Policy.Deadline.Seconds(), q.Policy.Budget
		}
		met := 0
		if q.MetDeadline {
			met = 1
		}
		fmt.Fprintf(&b, "%s,%d,%.1f,%.4f,%.3f,%d,%.6f,%d\n",
			q.Name, q.Weight, deadline, budget, q.Finish.Seconds(), met, q.AttributedCost, q.Granted)
	}
	return b.String()
}

// Package elastic implements the burst arbiter: one feedback loop that,
// during a live (or simulated) session, re-estimates the remaining work and
// decides — under each admitted query's deadline and dollar budget — when to
// provision extra cloud workers and when to drain idle ones. This is the
// dynamic follow-up the paper's authors outline ("Time and Cost Sensitive
// Data-Intensive Computing on Hybrid Clouds"): the static reproduction froze
// the topology at startup; the arbiter turns provisioning into a per-tick
// decision priced with costmodel.Pricing. A single-query run is a session
// with one QueryLoad.
//
// The arbiter is deliberately pure policy: it owns no goroutines, no clocks
// and no I/O. Two executors tick it with (now, per-query remaining work)
// snapshots and carry out the returned Decisions: driver.BurstLoop live (the
// one wall-clock loop, run by driver.Session and cmd/headnode) and
// hybridsim.ElasticSim in simulation (via Arbiter.SimElastic, on the virtual
// clock). Because the same Step code runs in both, simulated and live
// scaling behave identically on identical inputs — the parity the
// acceptance tests pin down.
//
// Billing awareness: scale-down respects Pricing.BillingQuantum. A worker
// whose current paid-for quantum already covers the remaining horizon is
// free to keep, so it is never drained; only workers that would need a
// renewal are candidates. Under 2011-style whole-hour billing this makes
// the arbiter hold workers to the end of their hour; under
// current-generation per-second billing almost every worker is one second
// from a renewal, so surplus capacity is drained aggressively.
package elastic

import (
	"fmt"
	"time"

	"repro/internal/costmodel"
	"repro/internal/hybridsim"
	"repro/internal/protocol"
)

// DefaultInterval is the arbiter tick period when ArbiterConfig.Interval is 0.
const DefaultInterval = 2 * time.Second

// Policy is the per-query elasticity contract — the four numbers that cross
// the wire with a query: Deadline (target completion from admission on the
// arbiter's clock; 0 = none, the query then never justifies fleet growth,
// only drains), Budget (hard cap on projected instance dollars; 0 =
// unlimited — past it the arbiter drains even if that forfeits the
// deadline), and MinWorkers/MaxWorkers (burst-fleet bounds; MaxWorkers 0 =
// the arbiter's session cap). Everything session-wide (cadence, cooldown,
// boot lead time, pricing, the fleet cap) lives on ArbiterConfig.
type Policy = protocol.ElasticPolicy

// Env describes what one more worker buys: the static topology plus the
// cluster model and network paths of a burst worker. The arbiter's
// model-based estimator evaluates est(w) by appending w copies of Worker to
// Base and re-running the remaining-work makespan estimate.
type Env struct {
	// Base is the static configuration: the topology and one query, whose
	// App is the cost shape the estimator uses. The query's Index and
	// Placement may be nil — only the topology and App feed the estimator.
	Base hybridsim.Config
	// Worker is the cluster model of one burst worker.
	Worker hybridsim.ClusterModel
	// WorkerPaths maps each data site to the path model a burst worker uses
	// to reach it. A site with no entry is unconstrained in the estimator
	// (same convention as estimate.Makespan), so cover every data site.
	WorkerPaths map[int]hybridsim.PathModel
}

// ConfigWith returns Base extended with `workers` burst-worker clusters,
// leaving Base's own slices and maps untouched.
func (e *Env) ConfigWith(workers int) hybridsim.Config {
	cfg := e.Base
	clusters := make([]hybridsim.ClusterModel, 0, len(cfg.Topology.Clusters)+workers)
	clusters = append(clusters, cfg.Topology.Clusters...)
	paths := make(map[[2]int]hybridsim.PathModel, len(cfg.Topology.Paths)+workers*len(e.WorkerPaths))
	for k, v := range cfg.Topology.Paths {
		paths[k] = v
	}
	for w := 0; w < workers; w++ {
		ci := len(clusters)
		clusters = append(clusters, e.Worker)
		for site, pm := range e.WorkerPaths {
			paths[[2]int{ci, site}] = pm
		}
	}
	cfg.Topology.Clusters = clusters
	cfg.Topology.Paths = paths
	return cfg
}

// Action is what one arbiter tick asks the executor to do.
type Action int

const (
	Hold Action = iota
	ScaleUp
	ScaleDown
)

// String renders the action.
func (a Action) String() string {
	switch a {
	case ScaleUp:
		return "scale-up"
	case ScaleDown:
		return "scale-down"
	default:
		return "hold"
	}
}

// Decision is one tick's verdict. The executor launches Delta workers on
// ScaleUp, or gracefully drains the sites listed in Sites on ScaleDown.
type Decision struct {
	// At is the arbiter-clock instant of the decision.
	At     time.Duration
	Action Action
	// Delta is the number of workers to add (ScaleUp only).
	Delta int
	// Sites lists the worker sites to drain (ScaleDown only).
	Sites []int
	// Workers is the active (non-draining) burst fleet size after the
	// decision takes effect.
	Workers int
	// Estimate is the predicted time still needed at Workers workers.
	Estimate time.Duration
	// ProjectedCost is the projected total instance spend (realized so far
	// plus the fleet billed through the estimated finish), in dollars.
	ProjectedCost float64
	// Reason explains the verdict, deterministic for identical inputs.
	Reason string
}

// episode is one worker's lifetime for billing: launch → (drain →) stop.
type episode struct {
	site      int
	launched  time.Duration
	draining  bool
	stopped   bool
	stoppedAt time.Duration
}

// renewalAt returns when the episode's current paid-for quantum runs out:
// keeping the worker past that instant costs another quantum.
func renewalAt(pricing costmodel.Pricing, ep episode, now time.Duration) time.Duration {
	q := pricing.BillingQuantum
	if q <= 0 {
		return now // metered continuously: every instant is a renewal
	}
	elapsed := now - ep.launched
	if elapsed < 0 {
		elapsed = 0
	}
	n := (elapsed + q - 1) / q
	nr := ep.launched + n*q
	if nr <= now {
		nr += q
	}
	return nr
}

// targetDeadline is the deadline the arbiter actually aims at: 1/8th
// inside the policy deadline. The analytic estimate is a fluid-model lower
// bound — it has no request latencies, commit granularity, or end-of-run
// stragglers — so steering at the raw deadline systematically overshoots.
func targetDeadline(deadline time.Duration) time.Duration {
	return deadline - deadline/8
}

// FormatDecisions renders the non-Hold decisions, one per line — the
// deterministic decision sequence the sweep prints and the determinism test
// compares byte-for-byte.
func FormatDecisions(ds []Decision) string {
	var b []byte
	for _, d := range ds {
		if d.Action == Hold {
			continue
		}
		b = append(b, fmt.Sprintf("%12s %-10s delta=%+d workers=%d est=%v cost=$%.4f  %s\n",
			d.At.Round(time.Millisecond), d.Action, d.Delta, d.Workers,
			d.Estimate.Round(time.Millisecond), d.ProjectedCost, d.Reason)...)
	}
	return string(b)
}

package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/hybridsim"
	"repro/internal/obs"
)

// TracedRun is one simulator execution captured with tracing enabled: the
// run's result plus the Obs bundle holding its trace events and metrics.
// Each traced run gets a FRESH Obs, so the trace file for one environment
// never mixes events from another.
type TracedRun struct {
	Label string // filesystem-safe run label, e.g. "knn-local" or "knn-scale-8x8"
	Sim   *hybridsim.Result
	Obs   *obs.Obs
}

// envLabel renders an (app, env) cell as a filesystem-safe label:
// "env-50/50" → "50-50".
func envLabel(app App, env Env) string {
	e := strings.TrimPrefix(string(env), "env-")
	e = strings.ReplaceAll(e, "/", "-")
	return fmt.Sprintf("%s-%s", app, e)
}

// runTraced executes one simulator configuration with a fresh enabled Obs.
func runTraced(label string, cfg func(*obs.Obs) hybridsim.Config) (TracedRun, error) {
	o := obs.New(nil)
	o.Tracer.Enable()
	sim, err := hybridsim.Run(cfg(o))
	if err != nil {
		return TracedRun{}, fmt.Errorf("experiments: traced run %s: %w", label, err)
	}
	return TracedRun{Label: label, Sim: sim, Obs: o}, nil
}

// TracedMultiRun is one multi-query simulator execution captured with
// tracing enabled: all queries share one deployment and one Obs, so the
// trace file is the merged multi-site, multi-query view.
type TracedMultiRun struct {
	Label string
	Sim   *hybridsim.MultiResult
	Obs   *obs.Obs
}

// RunMultiTraced runs every evaluation application as one concurrent
// multi-query workload over env's shared hybrid deployment with tracing
// enabled. The result is a single merged virtual-time trace in which
// head-side grant spans (pid 0) and cluster-side retrieval/processing spans
// carry the owning query's trace id — the simulated twin of the live head's
// merged multi-site trace, rendered on the simulator's clock.
func RunMultiTraced(env Env) (TracedMultiRun, error) {
	o := obs.New(nil)
	o.Tracer.Enable()
	// One shared deployment for all queries: the first app's calibrated core
	// counts (a multi-query head serves every query from the same clusters,
	// unlike the per-app single-query runs).
	mc := Config(Apps[0], env, SimOptions{}).Multi()
	mc.Seed, mc.Obs = 1, o
	for _, app := range Apps[1:] {
		mc.Queries = append(mc.Queries, Config(app, env, SimOptions{}).Multi().Queries[0])
	}
	label := "multi-" + strings.ReplaceAll(strings.TrimPrefix(string(env), "env-"), "/", "-")
	sim, err := hybridsim.RunMulti(mc)
	if err != nil {
		return TracedMultiRun{}, fmt.Errorf("experiments: traced multi run %s: %w", label, err)
	}
	return TracedMultiRun{Label: label, Sim: sim, Obs: o}, nil
}

// RunFig3Traced runs every Figure-3 environment for app with per-job event
// tracing enabled, returning one TracedRun per environment.
func RunFig3Traced(app App) ([]TracedRun, error) {
	var out []TracedRun
	for _, env := range Envs {
		env := env
		run, err := runTraced(envLabel(app, env), func(o *obs.Obs) hybridsim.Config {
			return Config(app, env, SimOptions{Obs: o})
		})
		if err != nil {
			return nil, err
		}
		out = append(out, run)
	}
	return out, nil
}

// RunFig4Traced runs the Figure-4 scalability sweep for app with tracing
// enabled, one TracedRun per (m, m) point.
func RunFig4Traced(app App) ([]TracedRun, error) {
	var out []TracedRun
	for _, m := range ScalePoints {
		m := m
		label := fmt.Sprintf("%s-scale-%dx%d", app, m, m)
		run, err := runTraced(label, func(o *obs.Obs) hybridsim.Config {
			return ScaleConfig(app, m, SimOptions{Obs: o})
		})
		if err != nil {
			return nil, err
		}
		out = append(out, run)
	}
	return out, nil
}

// PhaseDrift compares the trace's per-cluster phase-summary spans against
// the run's stats.Breakdown and returns the worst relative error across all
// clusters and phases. A correct trace stays well under 0.01 (1%) — the
// acceptance bound for `cloudburst trace`.
func (r TracedRun) PhaseDrift() float64 {
	totals := r.Obs.Tracer.PhaseTotals()
	worst := 0.0
	for i, c := range r.Sim.Clusters {
		got := totals[i+1]
		for name, want := range map[string]time.Duration{
			"processing": c.Breakdown.Processing,
			"retrieval":  c.Breakdown.Retrieval,
			"sync":       c.Breakdown.Sync,
		} {
			d := got[name]
			if want == 0 {
				if d != 0 {
					return math.Inf(1)
				}
				continue
			}
			if e := math.Abs(float64(d-want)) / math.Abs(float64(want)); e > worst {
				worst = e
			}
		}
	}
	return worst
}

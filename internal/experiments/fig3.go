package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/hybridsim"
)

// EnvResult is one cell of the Figure-3 evaluation: an (app, env) run.
type EnvResult struct {
	App        App
	Env        Env
	LocalCores int
	CloudCores int
	Sim        *hybridsim.Result
}

// Fig3Result is one application's row of Figure 3: all five environments.
type Fig3Result struct {
	App  App
	Envs []EnvResult
}

// RunFig3 executes the five environments for one application.
func RunFig3(app App) (*Fig3Result, error) {
	res := &Fig3Result{App: app}
	for _, env := range Envs {
		cell, err := RunEnv(app, env)
		if err != nil {
			return nil, err
		}
		res.Envs = append(res.Envs, *cell)
	}
	return res, nil
}

// RunEnv executes one (app, env) cell with default policies.
func RunEnv(app App, env Env) (*EnvResult, error) {
	local, cloud := envCores(app, env)
	sim, err := hybridsim.Run(Config(app, env, SimOptions{}))
	if err != nil {
		return nil, fmt.Errorf("experiments: %s/%s: %w", app, env, err)
	}
	return &EnvResult{App: app, Env: env, LocalCores: local, CloudCores: cloud, Sim: sim}, nil
}

// Baseline returns the env-local cell of a Fig3Result (the slowdown
// reference).
func (r *Fig3Result) Baseline() *EnvResult {
	for i := range r.Envs {
		if r.Envs[i].Env == EnvLocal {
			return &r.Envs[i]
		}
	}
	return nil
}

// Cell returns the named environment's result, or nil.
func (r *Fig3Result) Cell(env Env) *EnvResult {
	for i := range r.Envs {
		if r.Envs[i].Env == env {
			return &r.Envs[i]
		}
	}
	return nil
}

// Slowdown returns env's total-time slowdown relative to env-local,
// as a fraction (0.155 = 15.5 %).
func (r *Fig3Result) Slowdown(env Env) float64 {
	base, cell := r.Baseline(), r.Cell(env)
	if base == nil || cell == nil || base.Sim.Total == 0 {
		return 0
	}
	return float64(cell.Sim.Total-base.Sim.Total) / float64(base.Sim.Total)
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// FormatFig3 renders the application's Figure-3 panel: one stacked-bar row
// (processing / data retrieval / sync, in seconds) per environment and
// cluster, plus the (m, n) core labels under each environment, exactly the
// structure of Figures 3(a)-(c).
func (r *Fig3Result) FormatFig3() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 — %s: execution time decomposition (seconds)\n", r.App)
	fmt.Fprintf(&b, "%-12s %-8s %8s %10s %10s %8s %8s\n",
		"env (m,n)", "cluster", "proc", "retrieval", "sync", "total", "slowdown")
	for _, cell := range r.Envs {
		label := fmt.Sprintf("%s (%d,%d)", strings.TrimPrefix(string(cell.Env), "env-"), cell.LocalCores, cell.CloudCores)
		slow := "-"
		if cell.Env != EnvLocal {
			slow = fmt.Sprintf("%+.1f%%", 100*r.Slowdown(cell.Env))
		}
		for ci, c := range cell.Sim.Clusters {
			s := slow
			if ci > 0 {
				label, s = "", ""
			}
			fmt.Fprintf(&b, "%-12s %-8s %8.1f %10.1f %10.1f %8.1f %8s\n",
				label, c.Name,
				seconds(c.Breakdown.Processing),
				seconds(c.Breakdown.Retrieval),
				seconds(c.Breakdown.Sync),
				seconds(cell.Sim.Total), s)
		}
	}
	return b.String()
}

// FormatTable1 renders Table I for one app: jobs processed per cluster in
// the hybrid environments, with the stolen counts beyond the dotted line.
func (r *Fig3Result) FormatTable1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — %s: job assignment (960 jobs total)\n", r.App)
	fmt.Fprintf(&b, "%-10s %-8s %8s %10s %8s\n", "env", "cluster", "local", "(stolen)", "total")
	for _, env := range HybridEnvs {
		cell := r.Cell(env)
		if cell == nil {
			continue
		}
		for ci, c := range cell.Sim.Clusters {
			label := strings.TrimPrefix(string(env), "env-")
			if ci > 0 {
				label = ""
			}
			fmt.Fprintf(&b, "%-10s %-8s %8d %10d %8d\n",
				label, c.Name, c.Jobs.Local, c.Jobs.Stolen, c.Jobs.Total())
		}
	}
	return b.String()
}

// Table2Row is one hybrid environment's overhead decomposition (Table II).
type Table2Row struct {
	Env             Env
	GlobalReduction time.Duration // transfer+merge tail after the last cluster
	IdleTime        time.Duration // earliest-finisher wait for the last
	RetrievalExtra  time.Duration // worst-cluster retrieval growth vs env-local
	TotalSlowdown   time.Duration // total-time delta vs env-local
	SlowdownPct     float64
}

// Table2 computes the slowdown decomposition for the hybrid environments.
func (r *Fig3Result) Table2() []Table2Row {
	base := r.Baseline()
	var rows []Table2Row
	for _, env := range HybridEnvs {
		cell := r.Cell(env)
		if cell == nil || base == nil {
			continue
		}
		var baseRetr, cellRetr time.Duration
		for _, c := range base.Sim.Clusters {
			if c.Breakdown.Retrieval > baseRetr {
				baseRetr = c.Breakdown.Retrieval
			}
		}
		for _, c := range cell.Sim.Clusters {
			if c.Breakdown.Retrieval > cellRetr {
				cellRetr = c.Breakdown.Retrieval
			}
		}
		extra := cellRetr - baseRetr
		if extra < 0 {
			extra = 0
		}
		// The query's last fold per cluster splits the run's end: the
		// earliest finisher idles until the last one, after which the
		// global reduction runs.
		first, last := cell.Sim.Total, time.Duration(0)
		for _, done := range cell.Sim.Queries[0].LocalDone {
			first, last = min(first, done), max(last, done)
		}
		rows = append(rows, Table2Row{
			Env:             env,
			GlobalReduction: cell.Sim.Total - last,
			IdleTime:        last - first,
			RetrievalExtra:  extra,
			TotalSlowdown:   cell.Sim.Total - base.Sim.Total,
			SlowdownPct:     100 * r.Slowdown(env),
		})
	}
	return rows
}

// FormatTable2 renders Table II for one app (seconds).
func (r *Fig3Result) FormatTable2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II — %s: slowdowns w.r.t. data distribution (seconds)\n", r.App)
	fmt.Fprintf(&b, "%-10s %12s %10s %12s %12s %10s\n",
		"env", "global red.", "idle", "retr. extra", "total slow.", "ratio")
	for _, row := range r.Table2() {
		fmt.Fprintf(&b, "%-10s %12.2f %10.2f %12.2f %12.2f %9.1f%%\n",
			strings.TrimPrefix(string(row.Env), "env-"),
			seconds(row.GlobalReduction), seconds(row.IdleTime),
			seconds(row.RetrievalExtra), seconds(row.TotalSlowdown), row.SlowdownPct)
	}
	return b.String()
}

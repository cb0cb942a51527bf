package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/hybridsim"
)

// The fault-tolerance experiment: makespan overhead as a function of the
// reduction-object checkpoint cadence under 0, 1 and 4 injected cloud
// failures, on the paper's 50/50 hybrid environment. It quantifies the
// trade the checkpoint cadence buys — frequent checkpoints cost a little
// every few jobs (quiesce + merge + a synchronous ship) but bound how much
// work a crash reissues; no checkpoints are free until the first failure
// recomputes the crashed cluster's whole history.

// FaultFailureCounts are the injected cloud-cluster crash counts.
var FaultFailureCounts = []int{0, 1, 4}

// faultCadences picks the checkpoint cadences to sweep, in folds of a query
// on one cluster, scaled to the dataset so every app sees the same sweep:
// none, then 1/30, 1/14, 1/6 and 1/3 of its chunks (32, 68, 160 and 320 of
// 960). Each cluster folds about half the chunks, so the single mid-run
// crash lands near the cloud cluster's chunks/4-th fold. No cadence divides
// that count, so each one's last checkpoint before the crash lands at a
// different distance from it, and the sparsest lands none. Powers of two
// (chunks/32 … chunks/4) all checkpoint at that very fold and read alike.
func faultCadences(chunks int) []int {
	return []int{0, chunks / 30, chunks / 14, chunks / 6, chunks / 3}
}

// FaultRow is one cell of the fault table.
type FaultRow struct {
	App             App
	CheckpointEvery int // folds per checkpoint; 0 = no checkpointing
	Failures        int
	Total           time.Duration
	// OverheadPct is the makespan overhead versus the failure-free,
	// checkpoint-free baseline, in percent.
	OverheadPct float64
	Stats       hybridsim.FaultStats
}

// faultPlan builds the deterministic injection schedule for one cell:
// `failures` crashes of the cloud cluster spread evenly across the
// failure-free makespan, plus the recovery machinery.
func faultPlan(every, failures int, baseline time.Duration) fault.Plan {
	p := fault.Plan{
		RestartAfter: baseline / 8,
		Tuning:       config.Tuning{CheckpointEveryJobs: every, LeaseTTL: baseline / 16},
	}
	for i := 0; i < failures; i++ {
		at := baseline * time.Duration(i+1) / time.Duration(failures+1)
		p.Events = append(p.Events, fault.Event{At: at, Site: siteCloud, Kind: fault.Crash})
	}
	return p
}

// RunFaultTable sweeps checkpoint cadence × failure count for one app on
// the 50/50 hybrid environment. The first returned row (no checkpoints,
// 0 failures) is the failure-free baseline every overhead is measured
// against.
func RunFaultTable(app App) ([]FaultRow, error) {
	base, err := hybridsim.Run(Config(app, Env5050, SimOptions{}))
	if err != nil {
		return nil, fmt.Errorf("experiments: %s baseline: %w", app, err)
	}
	var rows []FaultRow
	for _, every := range faultCadences(DatasetIndex().NumChunks()) {
		for _, failures := range FaultFailureCounts {
			var res *hybridsim.Result
			if every == 0 && failures == 0 {
				res = base
			} else {
				cfg := Config(app, Env5050, SimOptions{})
				cfg.Faults = faultPlan(every, failures, base.Total)
				res, err = hybridsim.Run(cfg)
				if err != nil {
					return nil, fmt.Errorf("experiments: %s faults ckpt=%d failures=%d: %w", app, every, failures, err)
				}
			}
			rows = append(rows, FaultRow{
				App:             app,
				CheckpointEvery: every,
				Failures:        failures,
				Total:           res.Total,
				OverheadPct:     100 * float64(res.Total-base.Total) / float64(base.Total),
				Stats:           res.Faults,
			})
		}
	}
	return rows, nil
}

// FormatFaultTable renders the sweep as a table: one row per (cadence,
// failures) cell with makespan, overhead versus the failure-free baseline,
// and the recovery work performed.
func FormatFaultTable(rows []FaultRow) string {
	if len(rows) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fault tolerance — %s (50/50 hybrid): makespan vs checkpoint cadence\n", rows[0].App)
	fmt.Fprintf(&b, "%-10s %9s %10s %10s %6s %9s %8s %6s\n",
		"checkpoint", "failures", "total(s)", "overhead", "ckpts", "reissued", "requeued", "dups")
	for _, r := range rows {
		cadence := "none"
		if r.CheckpointEvery > 0 {
			cadence = fmt.Sprintf("%d jobs", r.CheckpointEvery)
		}
		fmt.Fprintf(&b, "%-10s %9d %10.1f %+9.1f%% %6d %9d %8d %6d\n",
			cadence, r.Failures, r.Total.Seconds(), r.OverheadPct,
			r.Stats.Checkpoints, r.Stats.Reissued, r.Stats.Requeued, r.Stats.DupCommits)
	}
	return b.String()
}

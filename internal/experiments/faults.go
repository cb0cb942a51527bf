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
// reduction-object checkpoint interval under 0, 1 and 4 injected cloud
// failures, on the paper's 50/50 hybrid environment. It quantifies the
// trade the checkpoint cadence buys — frequent checkpoints cost a little
// every interval (quiesce + merge + ship) but bound how much work a crash
// reissues; no checkpoints are free until the first failure recomputes the
// crashed cluster's whole history.

// FaultFailureCounts are the injected cloud-cluster crash counts.
var FaultFailureCounts = []int{0, 1, 4}

// faultIntervals picks the checkpoint cadences to sweep, scaled to the
// app's failure-free makespan so every app sees the same relative sweep:
// none, then 1/16, 1/8, 1/4 and 1/2 of the baseline (rounded to a second,
// minimum one second).
func faultIntervals(baseline time.Duration) []time.Duration {
	out := []time.Duration{0}
	for _, div := range []time.Duration{16, 8, 4, 2} {
		iv := (baseline / div).Round(time.Second)
		if iv < time.Second {
			iv = time.Second
		}
		out = append(out, iv)
	}
	return out
}

// FaultRow is one cell of the fault table.
type FaultRow struct {
	App             App
	CheckpointEvery time.Duration // 0 = no checkpointing
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
func faultPlan(every time.Duration, failures int, baseline time.Duration) fault.Plan {
	p := fault.Plan{
		CheckpointEvery: every,
		RestartAfter:    baseline / 8,
		Tuning:          config.Tuning{LeaseTTL: baseline / 16},
	}
	for i := 0; i < failures; i++ {
		at := baseline * time.Duration(i+1) / time.Duration(failures+1)
		p.Events = append(p.Events, fault.Event{At: at, Site: siteCloud, Kind: fault.Crash})
	}
	return p
}

// RunFaultTable sweeps checkpoint interval × failure count for one app on
// the 50/50 hybrid environment. The first returned row (interval 0,
// 0 failures) is the failure-free baseline every overhead is measured
// against.
func RunFaultTable(app App) ([]FaultRow, error) {
	base, err := hybridsim.Run(Config(app, Env5050, SimOptions{}))
	if err != nil {
		return nil, fmt.Errorf("experiments: %s baseline: %w", app, err)
	}
	var rows []FaultRow
	for _, every := range faultIntervals(base.Total) {
		for _, failures := range FaultFailureCounts {
			var res *hybridsim.Result
			if every == 0 && failures == 0 {
				res = base
			} else {
				cfg := Config(app, Env5050, SimOptions{})
				cfg.Faults = faultPlan(every, failures, base.Total)
				res, err = hybridsim.Run(cfg)
				if err != nil {
					return nil, fmt.Errorf("experiments: %s faults ckpt=%v failures=%d: %w", app, every, failures, err)
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

// FormatFaultTable renders the sweep as a table: one row per (interval,
// failures) cell with makespan, overhead versus the failure-free baseline,
// and the recovery work performed.
func FormatFaultTable(rows []FaultRow) string {
	if len(rows) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fault tolerance — %s (50/50 hybrid): makespan vs checkpoint interval\n", rows[0].App)
	fmt.Fprintf(&b, "%-10s %9s %10s %10s %6s %9s %8s %6s\n",
		"checkpoint", "failures", "total(s)", "overhead", "ckpts", "reissued", "requeued", "dups")
	for _, r := range rows {
		interval := "none"
		if r.CheckpointEvery > 0 {
			interval = r.CheckpointEvery.String()
		}
		fmt.Fprintf(&b, "%-10s %9d %10.1f %+9.1f%% %6d %9d %8d %6d\n",
			interval, r.Failures, r.Total.Seconds(), r.OverheadPct,
			r.Stats.Checkpoints, r.Stats.Reissued, r.Stats.Requeued, r.Stats.DupCommits)
	}
	return b.String()
}

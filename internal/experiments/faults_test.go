package experiments

import (
	"reflect"
	"testing"

	"repro/internal/hybridsim"
)

// TestFaultTableKNN is the fault-experiment acceptance check on the paper's
// kNN 50/50 hybrid cell: checkpointing alone must cost under 5%, and
// checkpoints must cut the recompute bill when failures land.
func TestFaultTableKNN(t *testing.T) {
	rows, err := RunFaultTable(KNN)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5*len(FaultFailureCounts) {
		t.Fatalf("got %d rows, want %d", len(rows), 5*len(FaultFailureCounts))
	}
	var noCkptOneFail, bestCkptOneFail *FaultRow
	for i := range rows {
		r := &rows[i]
		if r.Failures == 0 && r.OverheadPct >= 5 {
			t.Errorf("no-failure overhead at checkpoint=%v is %.2f%%, want < 5%%",
				r.CheckpointEvery, r.OverheadPct)
		}
		if r.Failures == 1 && r.CheckpointEvery == 0 {
			noCkptOneFail = r
		}
		if r.Failures == 1 && r.CheckpointEvery > 0 && (bestCkptOneFail == nil || r.CheckpointEvery < bestCkptOneFail.CheckpointEvery) {
			bestCkptOneFail = r
		}
		if r.Failures > 0 && r.Stats.Crashes == 0 {
			t.Errorf("row ckpt=%v failures=%d recorded no crashes", r.CheckpointEvery, r.Failures)
		}
	}
	if noCkptOneFail == nil || bestCkptOneFail == nil {
		t.Fatal("sweep is missing the single-failure rows")
	}
	if bestCkptOneFail.OverheadPct >= noCkptOneFail.OverheadPct {
		t.Errorf("frequent checkpoints (%.1f%%) did not beat no checkpoints (%.1f%%) under one failure",
			bestCkptOneFail.OverheadPct, noCkptOneFail.OverheadPct)
	}
	if bestCkptOneFail.Stats.Reissued >= noCkptOneFail.Stats.Reissued {
		t.Errorf("checkpointing reissued %d jobs, no-checkpoint run reissued %d — checkpoints protected nothing",
			bestCkptOneFail.Stats.Reissued, noCkptOneFail.Stats.Reissued)
	}
}

// TestFaultCrashAtPaperScaleDeterministic crashes the cloud cluster mid-run
// on the full paper-scale kNN dataset: the run must credit each of the 960
// jobs exactly once (the simulator's analogue of a byte-identical final
// reduction object) and be reproducible bit for bit.
func TestFaultCrashAtPaperScaleDeterministic(t *testing.T) {
	base, err := hybridsim.Run(Config(KNN, Env5050, SimOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	run := func() *hybridsim.Result {
		cfg := Config(KNN, Env5050, SimOptions{})
		cfg.Faults = faultPlan(DatasetIndex().NumChunks()/16, 1, base.Total)
		res, err := hybridsim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("crash runs are not reproducible:\n%+v\nvs\n%+v", a, b)
	}
	credits := 0
	for _, c := range a.Clusters {
		credits += c.Jobs.Total()
	}
	if want := DatasetIndex().NumChunks(); credits != want {
		t.Errorf("crash run credited %d jobs, dataset has %d", credits, want)
	}
	if a.Faults.Crashes != 1 || a.Faults.Recoveries != 1 {
		t.Errorf("Faults = %+v, want exactly one crash and one recovery", a.Faults)
	}
	if a.Total <= base.Total {
		t.Errorf("crash run (%v) finished no slower than failure-free (%v)", a.Total, base.Total)
	}
}

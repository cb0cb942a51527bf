package elastic

import (
	"strings"
	"testing"
	"time"
)

// TestDrainModel checks the estimate of an arbiter without an Env: none
// before a drain has been seen, the observed bytes/s scaled linearly with
// the worker-equivalents (the static fleet counts as one), and an EWMA with
// weight 0.3 on the newest sample.
func TestDrainModel(t *testing.T) {
	secs := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	arb, err := NewArbiter(ArbiterConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	step := func(now time.Duration, p *Policy, rem map[int]int64) Decision {
		t.Helper()
		d := arb.Step(now, []QueryLoad{{Query: 0, Policy: p, Remaining: rem}})
		if d.Action != Hold {
			t.Fatalf("tick at %v: %s, want hold", now, d.Action)
		}
		return d
	}
	if d := step(0, nil, map[int]int64{0: 800}); d.Estimate != 0 || d.Reason != "no estimate available" {
		t.Fatalf("first tick = %+v, want no estimate", d)
	}
	// 50 B/s at the static fleet's one unit; the calibration agrees with it.
	if d := step(10*time.Second, nil, map[int]int64{0: 200, 1: 100}); d.Estimate != 6*time.Second {
		t.Fatalf("estimate at 0 workers = %v, want 300B at 50 B/s", d.Estimate)
	}
	// Two more workers, seen at the same instant (no new sample), triple the
	// worker-equivalents → a third of the time. MinWorkers keeps them.
	keep := &Policy{MinWorkers: 2}
	arb.WorkerLaunched(10*time.Second, 1000)
	arb.WorkerLaunched(10*time.Second, 1001)
	if d := step(10*time.Second, keep, map[int]int64{0: 200, 1: 100}); d.Estimate != 2*time.Second {
		t.Fatalf("estimate at 2 workers = %v, want 300B at 150 B/s", d.Estimate)
	}
	// A 30 B/s sample moves the smoothed rate 0.3 of the way: 44 B/s. The
	// sample drains the work, so the calibration (which skips an empty
	// tick, and a tick where work grew) stays at 1 and the next query's
	// estimate shows the rate alone.
	step(20*time.Second, keep, map[int]int64{0: 0})
	if d := step(30*time.Second, keep, map[int]int64{0: 300, 1: 200}); d.Estimate != secs(500.0/44) {
		t.Fatalf("estimate after a slower sample = %v, want 500B at 44 B/s", d.Estimate)
	}
}

func TestFormatDecisionsSkipsHolds(t *testing.T) {
	ds := []Decision{
		{At: time.Second, Action: Hold, Reason: "x"},
		{At: 2 * time.Second, Action: ScaleUp, Delta: 1, Workers: 1,
			Estimate: time.Minute, Reason: "grow"},
	}
	out := FormatDecisions(ds)
	if strings.Contains(out, "hold") || !strings.Contains(out, "scale-up") {
		t.Fatalf("FormatDecisions:\n%s", out)
	}
	if n := strings.Count(out, "\n"); n != 1 {
		t.Fatalf("want 1 line, got %d:\n%s", n, out)
	}
}

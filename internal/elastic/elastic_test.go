package elastic

import (
	"strings"
	"testing"
	"time"
)

func TestThroughputEstimator(t *testing.T) {
	te := &ThroughputEstimator{Alpha: 1, BaseUnits: 2}
	if _, ok := te.Raw(map[int]int64{0: 1000}, 0); ok {
		t.Fatal("estimator returned ok before any rate sample")
	}
	te.Observe(0, 1000, 0)
	te.Observe(10*time.Second, 500, 0) // 50 B/s at 2 base units
	rem := map[int]int64{0: 300, 1: 200}
	if got, _ := te.Raw(rem, 0); got != 10*time.Second {
		t.Fatalf("Raw(rem, 0) = %v, want 10s", got)
	}
	// Two more workers double the worker-equivalents → half the time.
	if got, _ := te.Raw(rem, 2); got != 5*time.Second {
		t.Fatalf("Raw(rem, 2) = %v, want 5s", got)
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

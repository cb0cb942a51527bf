package stats

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestBreakdownArithmetic(t *testing.T) {
	a := Breakdown{Processing: 10, Retrieval: 20, Sync: 30}
	b := Breakdown{Processing: 5, Retrieval: 50, Sync: 1}
	sum := a.Add(b)
	if sum != (Breakdown{Processing: 15, Retrieval: 70, Sync: 31}) {
		t.Errorf("Add = %+v", sum)
	}
	if a.Total() != 60 {
		t.Errorf("Total = %v", a.Total())
	}
	m := a.Max(b)
	if m != (Breakdown{Processing: 10, Retrieval: 50, Sync: 30}) {
		t.Errorf("Max = %+v", m)
	}
	if s := a.String(); !strings.Contains(s, "proc=") || !strings.Contains(s, "total=") {
		t.Errorf("String = %q", s)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	var c Collector
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.AddProcessing(time.Millisecond)
			c.AddRetrieval("s3", 2*time.Millisecond, 100)
			c.AddRetrieval("local", time.Millisecond, 50)
			c.AddSync(3 * time.Millisecond)
		}()
	}
	wg.Wait()
	b := c.Breakdown()
	if b.Processing != 50*time.Millisecond {
		t.Errorf("Processing = %v", b.Processing)
	}
	if b.Retrieval != 150*time.Millisecond {
		t.Errorf("Retrieval = %v", b.Retrieval)
	}
	if b.Sync != 150*time.Millisecond {
		t.Errorf("Sync = %v", b.Sync)
	}
	br := c.BytesRetrieved()
	if br["s3"] != 5000 || br["local"] != 2500 {
		t.Errorf("BytesRetrieved = %v", br)
	}
	if got := c.Sources(); len(got) != 2 || got[0] != "local" || got[1] != "s3" {
		t.Errorf("Sources = %v", got)
	}
}

func TestTimer(t *testing.T) {
	var got time.Duration
	tm := StartTimer(func(d time.Duration) { got = d })
	time.Sleep(2 * time.Millisecond)
	tm.Stop()
	if got < time.Millisecond {
		t.Errorf("timer reported %v", got)
	}
	// Zero-value and nil timers are no-ops.
	(&Timer{}).Stop()
	(*Timer)(nil).Stop()
}

// TestTimerStopIdempotent guards against double-reporting: the common
// defer-Stop-plus-explicit-Stop pattern must deliver the interval once.
func TestTimerStopIdempotent(t *testing.T) {
	calls := 0
	var got time.Duration
	tm := StartTimer(func(d time.Duration) { calls++; got = d })
	tm.Stop()
	first := got
	time.Sleep(2 * time.Millisecond)
	tm.Stop()
	tm.Stop()
	if calls != 1 {
		t.Errorf("report called %d times, want 1", calls)
	}
	if got != first {
		t.Errorf("second Stop changed the reported interval: %v -> %v", first, got)
	}
}

// TestTimerOnClock verifies Timer measures a pluggable obs.Clock — the
// route simulator-driven code takes instead of time.Now.
func TestTimerOnClock(t *testing.T) {
	now := 10 * time.Second
	clk := obs.ClockFunc(func() time.Duration { return now })
	var got time.Duration
	tm := StartTimerOn(clk, func(d time.Duration) { got = d })
	now += 3 * time.Second
	tm.Stop()
	if got != 3*time.Second {
		t.Errorf("virtual interval = %v, want 3s", got)
	}
}

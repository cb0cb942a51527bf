// Package stats collects the time decomposition and counters the paper's
// evaluation reports: processing time, data-retrieval time, and sync time
// (barrier wait plus global-reduction transfer/merge), along with job
// accounting (local vs stolen) used by Table I.
//
// A Breakdown is a plain value; Collector is its concurrency-safe
// accumulator used by live workers. The discrete-event simulator fills in
// Breakdowns directly from virtual time.
package stats

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Breakdown is the per-cluster (or per-run) decomposition of wall time into
// the three components plotted in Figures 3 and 4 of the paper.
type Breakdown struct {
	// Processing is time spent applying the reduction function to elements.
	Processing time.Duration
	// Retrieval is time spent reading chunks from local disk or the remote
	// object store into slave memory.
	Retrieval time.Duration
	// Sync is barrier wait time: idling for the other cluster to finish,
	// plus transferring and merging reduction objects in global reduction.
	Sync time.Duration
}

// Total returns the sum of all components.
func (b Breakdown) Total() time.Duration {
	return b.Processing + b.Retrieval + b.Sync
}

// Add returns the component-wise sum of two breakdowns.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{
		Processing: b.Processing + o.Processing,
		Retrieval:  b.Retrieval + o.Retrieval,
		Sync:       b.Sync + o.Sync,
	}
}

// Max returns the component-wise maximum of two breakdowns. When two
// clusters run in parallel, the run's wall-clock breakdown is the
// per-cluster maximum, not the sum.
func (b Breakdown) Max(o Breakdown) Breakdown {
	m := b
	if o.Processing > m.Processing {
		m.Processing = o.Processing
	}
	if o.Retrieval > m.Retrieval {
		m.Retrieval = o.Retrieval
	}
	if o.Sync > m.Sync {
		m.Sync = o.Sync
	}
	return m
}

// String formats the breakdown as "proc=… retr=… sync=… total=…".
func (b Breakdown) String() string {
	return fmt.Sprintf("proc=%v retr=%v sync=%v total=%v",
		b.Processing.Round(time.Millisecond),
		b.Retrieval.Round(time.Millisecond),
		b.Sync.Round(time.Millisecond),
		b.Total().Round(time.Millisecond))
}

// JobAccounting counts how many jobs a cluster processed from its own
// storage versus how many it stole from the remote side (Table I).
type JobAccounting struct {
	Local  int // jobs whose data was local to the processing cluster
	Stolen int // jobs retrieved from the remote cluster / object store
}

// Total returns Local + Stolen.
func (a JobAccounting) Total() int { return a.Local + a.Stolen }

// Collector accumulates a Breakdown and per-source retrieval volume from
// many goroutines. The zero value is ready to use.
type Collector struct {
	mu sync.Mutex
	b  Breakdown

	// bytesRetrieved tracks the volume pulled from each source, keyed by a
	// caller-chosen label ("local", "s3", …).
	bytesRetrieved map[string]int64
}

// AddProcessing records d of processing time.
func (c *Collector) AddProcessing(d time.Duration) {
	c.mu.Lock()
	c.b.Processing += d
	c.mu.Unlock()
}

// AddRetrieval records d of retrieval time attributed to source, moving n bytes.
func (c *Collector) AddRetrieval(source string, d time.Duration, n int64) {
	c.mu.Lock()
	c.b.Retrieval += d
	if c.bytesRetrieved == nil {
		c.bytesRetrieved = make(map[string]int64)
	}
	c.bytesRetrieved[source] += n
	c.mu.Unlock()
}

// AddSync records d of synchronization (barrier / global-reduction) time.
func (c *Collector) AddSync(d time.Duration) {
	c.mu.Lock()
	c.b.Sync += d
	c.mu.Unlock()
}

// Breakdown returns a snapshot of the accumulated decomposition.
func (c *Collector) Breakdown() Breakdown {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.b
}

// BytesRetrieved returns a copy of the per-source byte counters.
func (c *Collector) BytesRetrieved() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.bytesRetrieved))
	for k, v := range c.bytesRetrieved {
		out[k] = v
	}
	return out
}

// Sources returns the retrieval source labels in sorted order.
func (c *Collector) Sources() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.bytesRetrieved))
	for k := range c.bytesRetrieved {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Timer measures an interval and reports it to a callback on Stop. It keeps
// worker code free of explicit time arithmetic. Timers read a pluggable
// obs.Clock, so simulator-driven code measures virtual time without ever
// calling time.Now; the nil Timer and repeated Stops are safe no-ops
// (Stop reports exactly once, however many times it runs).
type Timer struct {
	clk     obs.Clock
	start   time.Duration
	report  func(time.Duration)
	stopped bool
}

// StartTimer begins timing on the wall clock; report receives the elapsed
// duration at the first Stop.
func StartTimer(report func(time.Duration)) *Timer {
	return StartTimerOn(nil, report)
}

// StartTimerOn begins timing on clk (the wall clock when nil).
func StartTimerOn(clk obs.Clock, report func(time.Duration)) *Timer {
	if clk == nil {
		clk = obs.Wall
	}
	return &Timer{clk: clk, start: clk.Now(), report: report}
}

// Stop ends the interval and delivers it to the report callback. Only the
// first Stop reports; later calls are no-ops, so a deferred Stop cannot
// double-count an interval that was also stopped explicitly.
func (t *Timer) Stop() {
	if t == nil || t.stopped {
		return
	}
	t.stopped = true
	if t.report != nil {
		t.report(t.clk.Now() - t.start)
	}
}

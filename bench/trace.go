package main

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Parent is an index into
// the tracer's span list (-1 for a root); Rep/Query/Job/Site identify the
// request it belongs to (-1 where unknown or not applicable).
type span struct {
	Name       string
	Start, End time.Duration // since tracer.t0
	Parent     int
	Rep        int
	Query      int
	Job        int
	Site       int
}

// tracer is the benchmark's own instrumentation: wrappers around public
// calls time themselves into layer accumulators while `on` is set, and also
// keep spans while `keep` is set. With both clear the wrappers only count
// operations and failures, which the end-to-end result needs either way.
type tracer struct {
	t0   time.Time
	on   atomic.Bool
	keep atomic.Bool
	rep  atomic.Int32

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// add records a span and returns its index, or -1 when spans are not kept.
func (t *tracer) add(s span) int {
	if !t.keep.Load() {
		return -1
	}
	s.Rep = int(t.rep.Load())
	t.mu.Lock()
	t.spans = append(t.spans, s)
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end patches the end time of a span opened earlier with add.
func (t *tracer) end(i int, end time.Duration) {
	if i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// layer accumulates one layer's work: attempts and failures always, busy
// time, bytes and per-operation samples only while the tracer is on.
type layer struct {
	attempts atomic.Int64
	failures atomic.Int64

	mu      sync.Mutex
	n       int64
	busy    time.Duration
	bytes   int64
	samples []time.Duration
}

func (l *layer) observe(d time.Duration, bytes int) {
	l.mu.Lock()
	l.n++
	l.busy += d
	l.bytes += int64(bytes)
	l.samples = append(l.samples, d)
	l.mu.Unlock()
}

// snapshot returns the accumulated totals and a copy of the samples.
func (l *layer) snapshot() (n int64, busy time.Duration, bytes int64, samples []time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n, l.busy, l.bytes, append([]time.Duration(nil), l.samples...)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its direct children cover
// (overlapping children are counted once).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered time.Duration
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += (s.End - s.Start) - covered
	}
	return out
}

// chromeEvent is one entry of the Chrome / Perfetto JSON trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// spanPID places a span in a trace process: 0 is the benchmark client and
// the head, site s is process s+1, and folds (whose site the reducer wrapper
// cannot know) share one engine process.
func spanPID(s span) int {
	switch {
	case s.Name == "core.fold":
		return 1000
	case s.Site >= 0:
		return s.Site + 1
	}
	return 0
}

// assignLanes gives every span a thread id within its process so that spans
// sharing a lane nest properly: a span goes on its parent's lane when the
// parent is the innermost span still open there, otherwise on the first
// lane of the process with nothing open, otherwise on a new lane.
func assignLanes(spans []span) []int {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.End > sb.End // the enclosing span first
	})
	tids := make([]int, len(spans))
	lanes := make(map[int][][]int) // pid → lane → stack of open span indices
	for _, i := range order {
		s := spans[i]
		pid := spanPID(s)
		ls := lanes[pid]
		for li := range ls { // close what ended before this span starts
			for n := len(ls[li]); n > 0 && spans[ls[li][n-1]].End <= s.Start; n = len(ls[li]) {
				ls[li] = ls[li][:n-1]
			}
		}
		lane := -1
		if s.Parent >= 0 && spanPID(spans[s.Parent]) == pid {
			pl := tids[s.Parent]
			if n := len(ls[pl]); n > 0 && ls[pl][n-1] == s.Parent && s.End <= spans[s.Parent].End {
				lane = pl
			}
		}
		for li := 0; lane < 0 && li < len(ls); li++ {
			if len(ls[li]) == 0 {
				lane = li
			}
		}
		if lane < 0 {
			ls = append(ls, nil)
			lane = len(ls) - 1
		}
		ls[lane] = append(ls[lane], i)
		lanes[pid] = ls
		tids[i] = lane
	}
	return tids
}

// writeChromeTrace writes spans as Chrome/Perfetto JSON ("traceEvents" with
// complete events); open the file at ui.perfetto.dev or chrome://tracing.
func writeChromeTrace(path string, spans []span) error {
	tids := assignLanes(spans)
	events := make([]chromeEvent, 0, len(spans)+8)
	named := make(map[int]bool)
	for i, s := range spans {
		pid := spanPID(s)
		if !named[pid] {
			named[pid] = true
			name := "bench+head"
			switch {
			case pid == 1000:
				name = "engine folds"
			case pid > 0:
				name = "site " + strconv.Itoa(pid-1)
			}
			events = append(events, chromeEvent{Name: "process_name", Ph: "M", PID: pid,
				Args: map[string]any{"name": name}})
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", PID: pid, TID: tids[i],
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{"id": i, "parent": s.Parent, "rep": s.Rep,
				"query": s.Query, "job": s.Job},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

package jobs

import (
	"fmt"
	"sync"
)

// Tagged is a job grant carrying the query it belongs to. The multi-query
// head hands these out so one master interleaves work from many pools over
// a single registration.
type Tagged struct {
	Query int
	Job   Job
}

// strideScale is the pass-increment numerator: stride = strideScale/weight.
// Large enough that integer division keeps weights up to ~10^4 distinct.
const strideScale = 1 << 20

// FairShare hands out jobs from several per-query pools in proportion to
// their weights, using stride scheduling: each query advances a virtual
// "pass" by scale/weight per granted job, and every grant goes to the
// eligible query with the smallest pass. Over any contended window the
// grant counts converge to the weight ratios regardless of request batch
// sizes or which sites ask.
type FairShare struct {
	mu      sync.Mutex
	entries map[int]*fsEntry
	grants  map[int]int
}

type fsEntry struct {
	pool   *Pool
	weight int
	stride int64
	pass   int64
}

// NewFairShare returns an empty scheduler; queries join via Add.
func NewFairShare() *FairShare {
	return &FairShare{entries: make(map[int]*fsEntry), grants: make(map[int]int)}
}

// Add registers a query's pool with the given weight (min 1). A query that
// joins mid-run starts at the current minimum pass, so it competes from
// "now" instead of being owed the whole backlog.
func (f *FairShare) Add(query int, pool *Pool, weight int) error {
	if pool == nil {
		return fmt.Errorf("jobs: fair share query %d has nil pool", query)
	}
	if weight < 1 {
		weight = 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.entries[query]; ok {
		return fmt.Errorf("jobs: fair share query %d already registered", query)
	}
	e := &fsEntry{pool: pool, weight: weight, stride: strideScale / int64(weight)}
	e.pass = f.minPassLocked()
	f.entries[query] = e
	return nil
}

func (f *FairShare) minPassLocked() int64 {
	min := int64(0)
	first := true
	for _, e := range f.entries {
		if first || e.pass < min {
			min, first = e.pass, false
		}
	}
	return min
}

// Remove drops a query from scheduling (finished or canceled). Unknown
// queries are ignored.
func (f *FairShare) Remove(query int) {
	f.mu.Lock()
	delete(f.entries, query)
	f.mu.Unlock()
}

// Assign grants up to n jobs runnable at site, interleaved across queries
// by stride order. A query whose pool has nothing for the site right now is
// skipped without advancing its pass, so it keeps its claim for later.
func (f *FairShare) Assign(site, n int) []Tagged {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []Tagged
	skip := make(map[int]bool)
	for len(out) < n {
		q, e := f.minEligibleLocked(skip)
		if e == nil {
			break
		}
		js := e.pool.Assign(site, 1)
		if len(js) == 0 {
			skip[q] = true
			continue
		}
		e.pass += e.stride
		f.grants[q]++
		out = append(out, Tagged{Query: q, Job: js[0]})
	}
	return out
}

// minEligibleLocked picks the non-skipped entry with the smallest pass,
// breaking ties by query ID for determinism.
func (f *FairShare) minEligibleLocked(skip map[int]bool) (int, *fsEntry) {
	bestQ, best := -1, (*fsEntry)(nil)
	for q, e := range f.entries {
		if skip[q] {
			continue
		}
		if best == nil || e.pass < best.pass || (e.pass == best.pass && q < bestQ) {
			bestQ, best = q, e
		}
	}
	return bestQ, best
}

// Grants returns a copy of the per-query grant counts since construction —
// the measurement the fairness tests assert on.
func (f *FairShare) Grants() map[int]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[int]int, len(f.grants))
	for q, n := range f.grants {
		out[q] = n
	}
	return out
}

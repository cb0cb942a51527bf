package jobs

import (
	"fmt"
	"slices"
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
	entries []*fsEntry
	grants  map[int]int
	// one and out are Assign's scratch, reused under mu: the single job a
	// grant takes from its pool, and the grants of the call in progress.
	one []Job
	out []Tagged
}

type fsEntry struct {
	query  int
	pool   *Pool
	weight int
	stride int64
	pass   int64
	// skip marks a query whose pool had nothing for the site during the
	// Assign call in progress.
	skip bool
}

// NewFairShare returns an empty scheduler; queries join via Add.
func NewFairShare() *FairShare {
	return &FairShare{grants: make(map[int]int), one: make([]Job, 0, 1)}
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
	for _, e := range f.entries {
		if e.query == query {
			return fmt.Errorf("jobs: fair share query %d already registered", query)
		}
	}
	e := &fsEntry{query: query, pool: pool, weight: weight, stride: strideScale / int64(weight)}
	e.pass = f.minPassLocked()
	f.entries = append(f.entries, e)
	return nil
}

func (f *FairShare) minPassLocked() int64 {
	min := int64(0)
	for i, e := range f.entries {
		if i == 0 || e.pass < min {
			min = e.pass
		}
	}
	return min
}

// Remove drops a query from scheduling (finished or canceled). Unknown
// queries are ignored.
func (f *FairShare) Remove(query int) {
	f.mu.Lock()
	f.entries = slices.DeleteFunc(f.entries, func(e *fsEntry) bool { return e.query == query })
	f.mu.Unlock()
}

// Assign grants jobs runnable at site, interleaved across queries by
// stride order, one at a time while the grants number fewer than n or their
// chunks sum to fewer than bytes; bytes 0 asks for n jobs whatever their
// size. A query whose pool has nothing for the site right now is skipped
// without advancing its pass, so it keeps its claim for later. The returned
// slice is the call's one allocation.
func (f *FairShare) Assign(site, n int, bytes int64) []Tagged {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, e := range f.entries {
		e.skip = false
	}
	f.out = f.out[:0]
	for granted := int64(0); len(f.out) < n || granted < bytes; {
		e := f.minEligibleLocked()
		if e == nil {
			break
		}
		// One job per grant: a steal moves its file's reader count by one
		// per job, so asking for k at once could pick a different file.
		if f.one = e.pool.assign(f.one[:0], site, 1); len(f.one) == 0 {
			e.skip = true
			continue
		}
		e.pass += e.stride
		f.grants[e.query]++
		f.out = append(f.out, Tagged{Query: e.query, Job: f.one[0]})
		granted += f.one[0].Ref.Size
	}
	if len(f.out) == 0 {
		return nil
	}
	return slices.Clone(f.out)
}

// minEligibleLocked picks the non-skipped entry with the smallest pass,
// breaking ties by query ID for determinism.
func (f *FairShare) minEligibleLocked() *fsEntry {
	var best *fsEntry
	for _, e := range f.entries {
		if e.skip {
			continue
		}
		if best == nil || e.pass < best.pass || (e.pass == best.pass && e.query < best.query) {
			best = e
		}
	}
	return best
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

// Package jobs implements the head node's pooling-based job distribution:
// a global job pool generated from the dataset index, on-demand assignment
// of consecutive-job groups to requesting clusters, and the inter-cluster
// work-stealing policy used when a cluster has exhausted its locally-hosted
// jobs.
//
// The policies here are exactly the ones the paper describes:
//
//   - Each job corresponds to one chunk of the data set.
//   - When a cluster's job pool is diminishing, its master requests more
//     jobs from the head. If jobs hosted at that cluster remain, the head
//     assigns a group of CONSECUTIVE jobs from one file, so compute units
//     read sequentially and input utilization stays high.
//   - Once all of a cluster's own jobs are handed out, remaining remote jobs
//     are assigned (job stealing). Remote jobs are chosen from the file that
//     the MINIMUM number of nodes is currently processing, which minimizes
//     file contention between clusters.
//
// The same Pool drives the live middleware (internal/head) and the
// discrete-event simulator (internal/hybridsim), so the experiments exercise
// the real scheduling code.
package jobs

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/chunk"
	"repro/internal/obs"
)

// Job is one unit of cluster-level work: process one chunk.
type Job struct {
	ID   int       // global job id: position in the index's canonical order
	Ref  chunk.Ref // the chunk to retrieve and process
	Site int       // site hosting the chunk's file (index into the placement)
}

// Placement maps each file of a dataset to the site (cluster-attached
// storage or cloud store) hosting it. Site IDs are small dense integers;
// by convention in the experiments, site 0 is the local cluster's storage
// node and site 1 is the cloud object store.
type Placement []int

// SplitByFraction builds a placement for nFiles files where the first
// fraction (rounded to whole files) live on siteA and the rest on siteB.
// fraction is the share of files on siteA in [0,1].
func SplitByFraction(nFiles int, fraction float64, siteA, siteB int) Placement {
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	cut := int(fraction*float64(nFiles) + 0.5)
	p := make(Placement, nFiles)
	for i := range p {
		if i < cut {
			p[i] = siteA
		} else {
			p[i] = siteB
		}
	}
	return p
}

// Validate checks that the placement covers ix's files with non-negative
// site IDs.
func (p Placement) Validate(ix *chunk.Index) error {
	if len(p) != len(ix.Files) {
		return fmt.Errorf("jobs: placement covers %d files, index has %d", len(p), len(ix.Files))
	}
	for i, s := range p {
		if s < 0 {
			return fmt.Errorf("jobs: file %d assigned to negative site %d", i, s)
		}
	}
	return nil
}

// StealPolicy selects how the head picks the source file for stolen jobs.
type StealPolicy int

const (
	// StealMinContention picks the pending remote file with the fewest
	// active readers (the paper's heuristic).
	StealMinContention StealPolicy = iota
	// StealRoundRobin cycles over remote files regardless of contention
	// (ablation baseline).
	StealRoundRobin
)

// Options tune the assignment policies; zero value = the paper's behaviour.
type Options struct {
	// ScatterGroups, when true, disables the consecutive-job optimization
	// and strides assignments across files (ablation baseline).
	ScatterGroups bool
	// Steal selects the stolen-job source heuristic.
	Steal StealPolicy
	// DisableStealing statically partitions the work: each cluster only
	// ever receives jobs hosted at its own site (ablation baseline for the
	// paper's central load-balancing claim — without stealing, skewed data
	// placement translates directly into compute imbalance).
	DisableStealing bool
	// Metrics, when non-nil, receives the pool's scheduling accounting:
	// pool_jobs_assigned_local_total / pool_jobs_assigned_stolen_total
	// counters and pool_jobs_remaining / pool_jobs_outstanding gauges.
	Metrics *obs.Registry
}

// fileState tracks assignment progress within one file.
type fileState struct {
	site    int
	pending []Job // jobs not yet assigned, in offset order
	readers int   // clusters/nodes currently holding unfinished jobs of this file
}

// holders is the set of sites holding a live copy of one job. Under
// speculative re-execution a job can be in flight at several sites at once;
// the first commit wins and the rest are deduplicated. Assign never hands a
// site a job it already holds, so a site holds at most one copy and a set
// suffices. The first two sites (a grant, plus one speculative or
// post-failure copy) sit inline; a third and later spill to more.
type holders struct {
	inline [2]int
	n      int // inline[:n] are in use
	more   map[int]bool
}

func (h *holders) len() int { return h.n + len(h.more) }

func (h *holders) has(site int) bool {
	for _, s := range h.inline[:h.n] {
		if s == site {
			return true
		}
	}
	return h.more[site]
}

// add records site's copy; the caller has checked has(site) is false.
func (h *holders) add(site int) {
	if h.n < len(h.inline) {
		h.inline[h.n] = site
		h.n++
		return
	}
	if h.more == nil {
		h.more = make(map[int]bool)
	}
	h.more[site] = true
}

// remove drops site's copy, reporting whether it held one.
func (h *holders) remove(site int) bool {
	for i, s := range h.inline[:h.n] {
		if s == site {
			h.n--
			h.inline[i] = h.inline[h.n]
			return true
		}
	}
	if h.more[site] {
		delete(h.more, site)
		return true
	}
	return false
}

// Pool is the head node's global job pool. Safe for concurrent use.
type Pool struct {
	mu    sync.Mutex
	opts  Options
	files []fileState
	// perSite[s] lists file indices hosted at site s, in canonical order.
	perSite map[int][]int
	// cursor[s] is the next file to drain for site-local assignment.
	cursor map[int]int
	// rrCursor advances the round-robin steal ablation.
	rrCursor int
	// stride[s] is the next position in perSite[s] the scattered ablation
	// takes from, so successive asks keep striding across files.
	stride    map[int]int
	remaining int
	bytes     int64 // every job's chunk bytes; fixed at NewPool

	// Per-job state, indexed by job ID: NewPool numbers the jobs 0..N-1.
	byID         []Job     // every job
	held         []holders // sites holding a live copy of each job
	outstanding  int       // jobs held by at least one site
	completed    []bool    // committed, for duplicate detection
	inPending    []bool    // sitting in its file's pending list
	everAssigned []bool    // handed out at least once

	// Pre-resolved metric handles (nil no-ops when Options.Metrics is nil).
	mLocal, mStolen          *obs.Counter
	mRequeued, mReissued     *obs.Counter
	mSpeculated, mDupCommits *obs.Counter
	gRemaining, gOutstanding *obs.Gauge
}

// NewPool builds the global pool from a dataset index and a placement.
func NewPool(ix *chunk.Index, placement Placement, opts Options) (*Pool, error) {
	if err := placement.Validate(ix); err != nil {
		return nil, err
	}
	n := 0
	for _, f := range ix.Files {
		n += len(f.Chunks)
	}
	p := &Pool{
		opts:         opts,
		files:        make([]fileState, len(ix.Files)),
		perSite:      make(map[int][]int),
		cursor:       make(map[int]int),
		stride:       make(map[int]int),
		remaining:    n,
		byID:         make([]Job, 0, n),
		held:         make([]holders, n),
		completed:    make([]bool, n),
		inPending:    make([]bool, n),
		everAssigned: make([]bool, n),
	}
	for fi, f := range ix.Files {
		site := placement[fi]
		first := len(p.byID)
		for _, ref := range f.Chunks {
			p.byID = append(p.byID, Job{ID: len(p.byID), Ref: ref, Site: site})
			p.inPending[len(p.byID)-1] = true
			p.bytes += ref.Size
		}
		p.files[fi] = fileState{site: site, pending: slices.Clone(p.byID[first:])}
		p.perSite[site] = append(p.perSite[site], fi)
	}
	reg := opts.Metrics
	p.mLocal = reg.Counter("pool_jobs_assigned_local_total")
	p.mStolen = reg.Counter("pool_jobs_assigned_stolen_total")
	p.mRequeued = reg.Counter("pool_jobs_requeued_total")
	p.mReissued = reg.Counter("pool_jobs_reissued_total")
	p.mSpeculated = reg.Counter("pool_jobs_speculated_total")
	p.mDupCommits = reg.Counter("pool_dup_commits_total")
	p.gRemaining = reg.Gauge("pool_jobs_remaining")
	p.gOutstanding = reg.Gauge("pool_jobs_outstanding")
	p.gRemaining.Set(int64(p.remaining))
	return p, nil
}

// known reports whether id names one of the pool's jobs. IDs arrive off
// the wire, so every caller-supplied one is checked before it indexes.
func (p *Pool) known(id int) bool { return id >= 0 && id < len(p.byID) }

// Bytes returns the chunk bytes of every job in the pool, done or not: the
// size of the work the pool was built over.
func (p *Pool) Bytes() int64 { return p.bytes }

// Remaining reports the number of jobs not yet assigned.
func (p *Pool) Remaining() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.remaining
}

// Outstanding reports the number of assigned-but-uncompleted jobs.
func (p *Pool) Outstanding() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.outstanding
}

// Drained reports whether every job has been assigned and completed.
func (p *Pool) Drained() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.remaining == 0 && p.outstanding == 0
}

// Assign hands out up to n jobs to the requesting site. Site-local jobs are
// preferred and delivered as consecutive runs from a single file; once the
// site's own jobs are gone, remote jobs are stolen per the configured
// policy. A site is never granted a copy of a job it already holds live:
// after speculation the duplicates go to OTHER sites, since handing a
// straggler a second copy of its own job only slows it further. It
// returns nil when no jobs remain anywhere.
func (p *Pool) Assign(site, n int) []Job {
	if js := p.assign(nil, site, n); len(js) > 0 {
		return js
	}
	return nil
}

// assign is Assign appending the granted jobs to dst, so a caller that
// reuses dst allocates nothing; a nil dst gets one slice sized for the
// grant.
func (p *Pool) assign(dst []Job, site, n int) []Job {
	if n <= 0 {
		return dst
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.remaining == 0 {
		return dst
	}
	if dst == nil {
		dst = make([]Job, 0, min(n, p.remaining))
	}
	start := len(dst)
	if p.opts.ScatterGroups {
		dst = p.assignScattered(dst, site, n)
	} else {
		dst = p.assignConsecutive(dst, site, n)
	}
	for !p.opts.DisableStealing && len(dst)-start < n && p.remaining > 0 {
		before := len(dst)
		if dst = p.steal(dst, site, n-(len(dst)-start)); len(dst) == before {
			break
		}
	}
	for _, j := range dst[start:] {
		h := &p.held[j.ID]
		if h.len() == 0 {
			p.outstanding++
		}
		h.add(site)
		p.everAssigned[j.ID] = true
		if j.Site == site {
			p.mLocal.Inc()
		} else {
			p.mStolen.Inc()
		}
	}
	p.gRemaining.Set(int64(p.remaining))
	p.gOutstanding.Set(int64(p.outstanding))
	return dst
}

// assignConsecutive appends up to n consecutive jobs from the requesting
// site's files to dst, draining one file at a time.
func (p *Pool) assignConsecutive(dst []Job, site, n int) []Job {
	local := p.perSite[site]
	for want := len(dst) + n; len(dst) < want; {
		cur := p.cursor[site]
		// Advance past drained files.
		for cur < len(local) && len(p.files[local[cur]].pending) == 0 {
			cur++
		}
		p.cursor[site] = cur
		if cur >= len(local) {
			break
		}
		before := len(dst)
		if dst = p.takeFrom(dst, site, local[cur], want-len(dst)); len(dst) == before {
			// Everything left pending in this file is a copy the site
			// already holds; step past it so the loop terminates.
			p.cursor[site] = cur + 1
		}
	}
	return dst
}

// assignScattered (ablation) strides across the site's files one job per
// file, defeating sequential reads. The stride position persists across
// calls, so a run of one-job asks scatters exactly like one large ask.
func (p *Pool) assignScattered(dst []Job, site, n int) []Job {
	local := p.perSite[site]
	for want, misses := len(dst)+n, 0; len(dst) < want && misses < len(local); {
		i := p.stride[site] % len(local)
		p.stride[site] = i + 1
		before := len(dst)
		if dst = p.takeFrom(dst, site, local[i], 1); len(dst) > before {
			misses = 0
		} else {
			misses++
		}
	}
	return dst
}

// steal appends remote jobs for the requesting site to dst. Under the
// paper's policy the source is the pending remote file with the fewest
// active readers.
func (p *Pool) steal(dst []Job, site, n int) []Job {
	switch p.opts.Steal {
	case StealRoundRobin:
		for probes := 0; probes < len(p.files); probes++ {
			fi := p.rrCursor % len(p.files)
			p.rrCursor++
			fs := &p.files[fi]
			if fs.site != site && len(fs.pending) > 0 {
				before := len(dst)
				if dst = p.takeFrom(dst, site, fi, n); len(dst) > before {
					return dst
				}
			}
		}
		return dst
	default: // StealMinContention
		best := -1
		for fi := range p.files {
			fs := &p.files[fi]
			if fs.site == site || len(fs.pending) == 0 {
				continue
			}
			if best == -1 || fs.readers < p.files[best].readers {
				best = fi
			}
		}
		if best == -1 {
			return dst
		}
		return p.takeFrom(dst, site, best, n)
	}
}

// takeFrom moves up to n pending jobs from file fi to dst for the
// requesting site and bumps the file's reader count. Jobs the site already
// holds a live copy of (speculative re-insertions of its own in-flight
// work) are skipped — handing a straggler a duplicate of its own job only
// slows it further; those copies stay pending for some other site to pick
// up, or are dropped when the original commits. It walks only the jobs it
// takes or skips, not the whole pending list.
func (p *Pool) takeFrom(dst []Job, site, fi, n int) []Job {
	fs := &p.files[fi]
	start := len(dst)
	i, k := 0, 0 // jobs walked; skipped copies, compacted to the front
	for ; i < len(fs.pending) && len(dst)-start < n; i++ {
		j := fs.pending[i]
		if p.held[j.ID].has(site) {
			fs.pending[k] = j
			k++
			continue
		}
		dst = append(dst, j)
		p.inPending[j.ID] = false
	}
	copy(fs.pending[i-k:i], fs.pending[:k]) // skipped copies stay in order
	fs.pending = fs.pending[i-k:]
	took := len(dst) - start
	fs.readers += took
	p.remaining -= took
	return dst
}

// Commit records that site finished job j, releasing its contribution to
// the source file's contention counter and deduplicating speculative and
// recovered re-executions: the first commit of a job ID wins (dup=false)
// and every later one reports dup=true so the caller discards the
// duplicate's contribution. Committing a job that was never assigned and
// never completed, or whose ID names no job of this pool, is an error — the
// conservation property the tests verify. Only j.ID is read: the pool
// keeps its own record of each job.
func (p *Pool) Commit(site int, j Job) (dup bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := j.ID
	if !p.known(id) {
		return false, fmt.Errorf("jobs: completing job %d that is not outstanding", id)
	}
	if p.completed[id] {
		// A duplicate from a speculative or re-assigned copy: release this
		// site's copy if it holds one.
		p.releaseCopyLocked(id, site)
		p.mDupCommits.Inc()
		return true, nil
	}
	if p.held[id].len() == 0 && !(p.inPending[id] && p.everAssigned[id]) {
		return false, fmt.Errorf("jobs: completing job %d that is not outstanding", id)
	}
	// The work is real even when the committing site no longer holds a copy
	// (it was declared failed and its copy requeued or reassigned), or when
	// the job went back to the pool before this late completion arrived
	// (lease expiry during a partition): accept it, make the other copies
	// duplicates and withdraw any pending copy.
	p.completed[id] = true
	p.releaseCopyLocked(id, site)
	p.dropPendingLocked(id)
	p.gRemaining.Set(int64(p.remaining))
	p.gOutstanding.Set(int64(p.outstanding))
	return false, nil
}

// releaseCopyLocked drops site's copy of job id, if it holds one, and the
// file reader count that came with it.
func (p *Pool) releaseCopyLocked(id, site int) {
	h := &p.held[id]
	if !h.remove(site) {
		return
	}
	p.files[p.byID[id].Ref.File].readers--
	if h.len() == 0 {
		p.outstanding--
	}
	p.gOutstanding.Set(int64(p.outstanding))
}

// dropPendingLocked withdraws a pending copy of job id (left behind by
// speculation or requeue) so completed work is never handed out again.
func (p *Pool) dropPendingLocked(id int) {
	if !p.inPending[id] {
		return
	}
	fs := &p.files[p.byID[id].Ref.File]
	for i, pj := range fs.pending {
		if pj.ID == id {
			fs.pending = append(fs.pending[:i], fs.pending[i+1:]...)
			break
		}
	}
	p.inPending[id] = false
	p.remaining--
	p.gRemaining.Set(int64(p.remaining))
}

// insertPendingLocked returns job id to its file's pending list in offset
// order and resets the host site's assignment cursor so the revived file is
// visible to site-local assignment again. A job already pending resets the
// cursor too: a grant may have stepped the cursor past its file while the
// site still held every pending job there.
func (p *Pool) insertPendingLocked(id int) {
	j := p.byID[id]
	fs := &p.files[j.Ref.File]
	p.cursor[fs.site] = 0
	if p.inPending[id] {
		return
	}
	i := sort.Search(len(fs.pending), func(i int) bool {
		return fs.pending[i].Ref.Seq >= j.Ref.Seq
	})
	fs.pending = slices.Insert(fs.pending, i, j)
	p.inPending[id] = true
	p.remaining++
	p.gRemaining.Set(int64(p.remaining))
}

// FailSite declares the cluster at site failed: every copy it holds is
// withdrawn, and jobs with no surviving copy elsewhere return to the pool
// for reassignment. It returns the requeued jobs sorted by ID. Completed
// jobs are unaffected — use Reissue for completions whose contribution was
// lost with the site's memory.
func (p *Pool) FailSite(site int) []Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	var requeued []Job
	for id := range p.held {
		h := &p.held[id]
		if !h.remove(site) {
			continue
		}
		p.files[p.byID[id].Ref.File].readers--
		if h.len() > 0 {
			continue
		}
		p.outstanding--
		if !p.completed[id] {
			p.insertPendingLocked(id)
			p.mRequeued.Inc()
			requeued = append(requeued, p.byID[id])
		}
	}
	p.gRemaining.Set(int64(p.remaining))
	p.gOutstanding.Set(int64(p.outstanding))
	return requeued
}

// Reissue returns previously committed jobs to the pool: the head calls it
// when a site dies after committing work that was not yet covered by a
// persisted checkpoint, so the lost contributions are recomputed. Jobs
// currently outstanding elsewhere (a surviving speculative copy) are left
// outstanding rather than requeued — that copy's commit will supply the
// contribution. IDs that name no job of this pool are skipped. Returns the
// number of jobs actually reissued to the pool.
func (p *Pool) Reissue(js []Job) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := make([]int, 0, len(js))
	for _, j := range js {
		if p.known(j.ID) {
			ids = append(ids, j.ID)
		}
	}
	slices.Sort(ids)
	n := 0
	for _, id := range ids {
		if !p.completed[id] {
			continue // never committed, or already reissued
		}
		p.completed[id] = false
		p.mReissued.Inc()
		n++
		if p.held[id].len() > 0 {
			continue // a live speculative copy will re-commit it
		}
		p.insertPendingLocked(id)
	}
	p.gRemaining.Set(int64(p.remaining))
	return n
}

// SpeculateOutstanding re-adds every outstanding job to the pool as a
// speculative copy, so idle clusters can duplicate a straggler's in-flight
// work; the pool deduplicates whichever copy commits second. Returns the
// speculated jobs sorted by ID.
func (p *Pool) SpeculateOutstanding() []Job {
	return p.speculate(func(h *holders) bool { return h.len() > 0 })
}

// SpeculateSite re-adds the outstanding jobs held by one site to the pool
// as speculative copies — the targeted form of SpeculateOutstanding used by
// the head's latency watchdog when it has identified WHICH site is slow, so
// healthy sites' in-flight work is not needlessly duplicated. Returns the
// speculated jobs sorted by ID.
func (p *Pool) SpeculateSite(site int) []Job {
	return p.speculate(func(h *holders) bool { return h.has(site) })
}

// speculate re-adds, in ID order, every uncommitted job whose holders
// match and that has no pending copy yet.
func (p *Pool) speculate(match func(*holders) bool) []Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Job
	for id := range p.held {
		if !match(&p.held[id]) || p.completed[id] || p.inPending[id] {
			continue
		}
		p.insertPendingLocked(id)
		p.mSpeculated.Inc()
		out = append(out, p.byID[id])
	}
	p.gRemaining.Set(int64(p.remaining))
	return out
}

// OutstandingAt reports how many outstanding jobs the given site currently
// holds at least one live copy of. The head's drain protocol polls this to
// decide when a departing site has finished (or handed back) all its work.
func (p *Pool) OutstandingAt(site int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for id := range p.held {
		if p.held[id].has(site) {
			n++
		}
	}
	return n
}

// RemainingBytesBySite returns the bytes of work not yet committed, keyed by
// the site HOSTING the data (not the site processing it): pending jobs plus
// outstanding-but-uncommitted ones. This is the remaining-work snapshot the
// elastic arbiter feeds to estimate.MakespanRemaining — demand is located
// where the bytes must be read from, regardless of which cluster will do the
// reading.
func (p *Pool) RemainingBytesBySite() map[int]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[int]int64)
	for id, j := range p.byID {
		// A held copy of committed work is a duplicate, not new demand.
		if p.inPending[id] || (p.held[id].len() > 0 && !p.completed[id]) {
			out[j.Site] += j.Ref.Size
		}
	}
	return out
}

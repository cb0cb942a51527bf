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

// assignment tracks one outstanding job: which sites currently hold copies
// of it. Under speculative re-execution a job can be in flight at several
// sites at once; the first commit wins and the rest are deduplicated.
type assignment struct {
	job    Job
	copies map[int]int // requesting site -> outstanding copies there
}

func (a *assignment) total() int {
	n := 0
	for _, c := range a.copies {
		n += c
	}
	return n
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
	stride       map[int]int
	remaining    int
	assigned     map[int]*assignment // outstanding jobs by ID
	completed    map[int]bool        // committed job IDs, for duplicate detection
	inPending    map[int]bool        // job IDs currently sitting in some pending list
	everAssigned map[int]bool        // job IDs handed out at least once

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
	p := &Pool{
		opts:         opts,
		files:        make([]fileState, len(ix.Files)),
		perSite:      make(map[int][]int),
		cursor:       make(map[int]int),
		stride:       make(map[int]int),
		assigned:     make(map[int]*assignment),
		completed:    make(map[int]bool),
		inPending:    make(map[int]bool),
		everAssigned: make(map[int]bool),
	}
	id := 0
	for fi, f := range ix.Files {
		site := placement[fi]
		fs := fileState{site: site, pending: make([]Job, 0, len(f.Chunks))}
		for _, ref := range f.Chunks {
			fs.pending = append(fs.pending, Job{ID: id, Ref: ref, Site: site})
			p.inPending[id] = true
			id++
		}
		p.files[fi] = fs
		p.perSite[site] = append(p.perSite[site], fi)
		p.remaining += len(f.Chunks)
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
	return len(p.assigned)
}

// Drained reports whether every job has been assigned and completed.
func (p *Pool) Drained() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.remaining == 0 && len(p.assigned) == 0
}

// Assign hands out up to n jobs to the requesting site. Site-local jobs are
// preferred and delivered as consecutive runs from a single file; once the
// site's own jobs are gone, remote jobs are stolen per the configured
// policy. A site is never granted a copy of a job it already holds live:
// after speculation the duplicates go to OTHER sites, since handing a
// straggler a second copy of its own job only slows it further. It
// returns nil when no jobs remain anywhere.
func (p *Pool) Assign(site, n int) []Job {
	if n <= 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.remaining == 0 {
		return nil
	}
	var out []Job
	if p.opts.ScatterGroups {
		out = p.assignScattered(site, n)
	} else {
		out = p.assignConsecutive(site, n)
	}
	for !p.opts.DisableStealing && len(out) < n && p.remaining > 0 {
		stolen := p.steal(site, n-len(out))
		if len(stolen) == 0 {
			break
		}
		out = append(out, stolen...)
	}
	for _, j := range out {
		a := p.assigned[j.ID]
		if a == nil {
			a = &assignment{job: j, copies: make(map[int]int, 1)}
			p.assigned[j.ID] = a
		}
		a.copies[site]++
		p.everAssigned[j.ID] = true
		if j.Site == site {
			p.mLocal.Inc()
		} else {
			p.mStolen.Inc()
		}
	}
	p.gRemaining.Set(int64(p.remaining))
	p.gOutstanding.Set(int64(len(p.assigned)))
	return out
}

// assignConsecutive takes up to n consecutive jobs from the requesting
// site's files, draining one file at a time.
func (p *Pool) assignConsecutive(site, n int) []Job {
	var out []Job
	local := p.perSite[site]
	for len(out) < n {
		cur := p.cursor[site]
		// Advance past drained files.
		for cur < len(local) && len(p.files[local[cur]].pending) == 0 {
			cur++
		}
		p.cursor[site] = cur
		if cur >= len(local) {
			break
		}
		fi := local[cur]
		took := p.takeFrom(site, fi, n-len(out))
		if len(took) == 0 {
			// Everything left pending in this file is a copy the site
			// already holds; step past it so the loop terminates.
			p.cursor[site] = cur + 1
			continue
		}
		out = append(out, took...)
	}
	return out
}

// assignScattered (ablation) strides across the site's files one job per
// file, defeating sequential reads. The stride position persists across
// calls, so a run of one-job asks scatters exactly like one large ask.
func (p *Pool) assignScattered(site, n int) []Job {
	var out []Job
	local := p.perSite[site]
	for misses := 0; len(out) < n && misses < len(local); {
		i := p.stride[site] % len(local)
		p.stride[site] = i + 1
		if js := p.takeFrom(site, local[i], 1); len(js) > 0 {
			out = append(out, js...)
			misses = 0
		} else {
			misses++
		}
	}
	return out
}

// steal picks remote jobs for the requesting site. Under the paper's policy
// the source is the pending remote file with the fewest active readers.
func (p *Pool) steal(site, n int) []Job {
	switch p.opts.Steal {
	case StealRoundRobin:
		for probes := 0; probes < len(p.files); probes++ {
			fi := p.rrCursor % len(p.files)
			p.rrCursor++
			fs := &p.files[fi]
			if fs.site != site && len(fs.pending) > 0 {
				if js := p.takeFrom(site, fi, n); len(js) > 0 {
					return js
				}
			}
		}
		return nil
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
			return nil
		}
		return p.takeFrom(site, best, n)
	}
}

// takeFrom removes up to n pending jobs from file fi for the requesting
// site and bumps the file's reader count. Jobs the site already holds a
// live copy of (speculative re-insertions of its own in-flight work) are
// skipped — handing a straggler a duplicate of its own job only slows it
// further; those copies stay pending for some other site to pick up, or
// are dropped when the original commits. It walks only the jobs it takes
// or skips, not the whole pending list.
func (p *Pool) takeFrom(site, fi, n int) []Job {
	fs := &p.files[fi]
	out := make([]Job, 0, min(n, len(fs.pending)))
	i, k := 0, 0 // jobs walked; skipped copies, compacted to the front
	for ; i < len(fs.pending) && len(out) < n; i++ {
		j := fs.pending[i]
		if a := p.assigned[j.ID]; a != nil && a.copies[site] > 0 {
			fs.pending[k] = j
			k++
			continue
		}
		out = append(out, j)
	}
	copy(fs.pending[i-k:i], fs.pending[:k]) // skipped copies stay in order
	fs.pending = fs.pending[i-k:]
	fs.readers += len(out)
	p.remaining -= len(out)
	for _, j := range out {
		delete(p.inPending, j.ID)
	}
	return out
}

// Commit records that site finished job j, releasing its contribution to
// the source file's contention counter and deduplicating speculative and
// recovered re-executions: the first commit of a job ID wins (dup=false)
// and every later one reports dup=true so the caller discards the
// duplicate's contribution. Committing a job that was never assigned and
// never completed is an error — the conservation property the tests verify.
func (p *Pool) Commit(site int, j Job) (dup bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.completed[j.ID] {
		// A duplicate from a speculative or re-assigned copy: release this
		// site's copy if it holds one.
		if a := p.assigned[j.ID]; a != nil && a.copies[site] > 0 {
			p.releaseCopyLocked(a, site, j)
		}
		p.mDupCommits.Inc()
		return true, nil
	}
	a := p.assigned[j.ID]
	if a == nil && !(p.inPending[j.ID] && p.everAssigned[j.ID]) {
		return false, fmt.Errorf("jobs: completing job %d that is not outstanding", j.ID)
	}
	// The work is real even when the committing site no longer holds a copy
	// (it was declared failed and its copy requeued or reassigned), or when
	// the job went back to the pool before this late completion arrived
	// (lease expiry during a partition): accept it, make the other copies
	// duplicates and withdraw any pending copy.
	p.completed[j.ID] = true
	if a != nil && a.copies[site] > 0 {
		p.releaseCopyLocked(a, site, j)
	}
	p.dropPendingLocked(j)
	p.gRemaining.Set(int64(p.remaining))
	p.gOutstanding.Set(int64(len(p.assigned)))
	return false, nil
}

// releaseCopyLocked decrements site's copy of a and the file reader count,
// deleting the assignment when no copies remain anywhere.
func (p *Pool) releaseCopyLocked(a *assignment, site int, j Job) {
	a.copies[site]--
	if a.copies[site] <= 0 {
		delete(a.copies, site)
	}
	p.files[j.Ref.File].readers--
	if a.total() == 0 {
		delete(p.assigned, j.ID)
	}
	p.gOutstanding.Set(int64(len(p.assigned)))
}

// dropPendingLocked withdraws a pending copy of j (left behind by
// speculation or requeue) so completed work is never handed out again.
func (p *Pool) dropPendingLocked(j Job) {
	if !p.inPending[j.ID] {
		return
	}
	fs := &p.files[j.Ref.File]
	for i, pj := range fs.pending {
		if pj.ID == j.ID {
			fs.pending = append(fs.pending[:i], fs.pending[i+1:]...)
			break
		}
	}
	delete(p.inPending, j.ID)
	p.remaining--
	p.gRemaining.Set(int64(p.remaining))
}

// insertPendingLocked returns j to its file's pending list in offset order
// and resets the host site's assignment cursor so the revived file is
// visible to site-local assignment again.
func (p *Pool) insertPendingLocked(j Job) {
	if p.inPending[j.ID] {
		return
	}
	fs := &p.files[j.Ref.File]
	i := sort.Search(len(fs.pending), func(i int) bool {
		return fs.pending[i].Ref.Seq >= j.Ref.Seq
	})
	fs.pending = append(fs.pending, Job{})
	copy(fs.pending[i+1:], fs.pending[i:])
	fs.pending[i] = j
	p.inPending[j.ID] = true
	p.remaining++
	p.cursor[fs.site] = 0
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
	ids := make([]int, 0, len(p.assigned))
	for id := range p.assigned {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		a := p.assigned[id]
		n := a.copies[site]
		if n == 0 {
			continue
		}
		delete(a.copies, site)
		p.files[a.job.Ref.File].readers -= n
		if a.total() == 0 {
			delete(p.assigned, id)
			if !p.completed[id] {
				p.insertPendingLocked(a.job)
				p.mRequeued.Inc()
				requeued = append(requeued, a.job)
			}
		}
	}
	p.gRemaining.Set(int64(p.remaining))
	p.gOutstanding.Set(int64(len(p.assigned)))
	return requeued
}

// Reissue returns previously committed jobs to the pool: the head calls it
// when a site dies after committing work that was not yet covered by a
// persisted checkpoint, so the lost contributions are recomputed. Jobs
// currently outstanding elsewhere (a surviving speculative copy) are left
// outstanding rather than requeued — that copy's commit will supply the
// contribution. Returns the number of jobs actually reissued to the pool.
func (p *Pool) Reissue(js []Job) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	sorted := make([]Job, len(js))
	copy(sorted, js)
	sort.Slice(sorted, func(i, k int) bool { return sorted[i].ID < sorted[k].ID })
	n := 0
	for _, j := range sorted {
		if !p.completed[j.ID] {
			continue // never committed, or already reissued
		}
		delete(p.completed, j.ID)
		p.mReissued.Inc()
		n++
		if p.assigned[j.ID] != nil {
			continue // a live speculative copy will re-commit it
		}
		p.insertPendingLocked(j)
	}
	p.gRemaining.Set(int64(p.remaining))
	return n
}

// SpeculateOutstanding re-adds every outstanding job to the pool as a
// speculative copy, so idle clusters can duplicate a straggler's in-flight
// work; the pool deduplicates whichever copy commits second. Returns the
// speculated jobs sorted by ID.
func (p *Pool) SpeculateOutstanding() []Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := make([]int, 0, len(p.assigned))
	for id := range p.assigned {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var out []Job
	for _, id := range ids {
		if p.completed[id] || p.inPending[id] {
			continue
		}
		j := p.assigned[id].job
		p.insertPendingLocked(j)
		p.mSpeculated.Inc()
		out = append(out, j)
	}
	p.gRemaining.Set(int64(p.remaining))
	return out
}

// SpeculateSite re-adds the outstanding jobs held by one site to the pool
// as speculative copies — the targeted form of SpeculateOutstanding used by
// the head's latency watchdog when it has identified WHICH site is slow, so
// healthy sites' in-flight work is not needlessly duplicated. Returns the
// speculated jobs sorted by ID.
func (p *Pool) SpeculateSite(site int) []Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := make([]int, 0, len(p.assigned))
	for id, a := range p.assigned {
		if a.copies[site] > 0 {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	var out []Job
	for _, id := range ids {
		if p.completed[id] || p.inPending[id] {
			continue
		}
		j := p.assigned[id].job
		p.insertPendingLocked(j)
		p.mSpeculated.Inc()
		out = append(out, j)
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
	for _, a := range p.assigned {
		if a.copies[site] > 0 {
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
	for fi := range p.files {
		fs := &p.files[fi]
		for _, j := range fs.pending {
			out[fs.site] += j.Ref.Size
		}
	}
	for id, a := range p.assigned {
		if p.completed[id] || p.inPending[id] {
			continue // a dup copy of committed/speculated work, not new demand
		}
		out[a.job.Site] += a.job.Ref.Size
	}
	return out
}

package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/protocol"
)

// probes is everything the benchmark observes from outside the middleware in
// one run: a layer accumulator per wrapped call, plus the per-rep state that
// joins a grant seen in a Poll reply to the commit that acknowledges it.
type probes struct {
	tr *tracer

	// chunk.Source wrappers, innermost first.
	objRead   layer // around objstore.Source
	memRead   layer // around chunk.MemSource
	cacheRead layer // around stagecache's Wrap view
	// cluster.QueryClient wrapper.
	poll, commit, spec, submit layer
	jobLatency                 layer
	emptyPolls, grants         atomic.Int64
	dupCommits                 atomic.Int64
	robjBytes, robjCount       atomic.Int64
	// reducer wrappers.
	fold, encode   layer // agent side (registry-built reducers)
	decode, global layer // head side (the reducer handed to Admit)

	mu         sync.Mutex
	grantAt    map[jobKey]time.Duration
	pending    map[jobKey][]readRec // Query is -1: a source cannot know it
	firstGrant time.Duration
	lastCommit map[int]time.Duration // site → last commit acknowledged
	agentSpan  map[int]int           // site → this rep's agent span
	repSpanIdx int                   // this rep's root span, -1 when spans are not kept
	fairOpen   bool
	fairTotal  int64         // jobs per query; the window ends when one query is fully granted
	fairGrants map[int]int64 // query → grants while every query still had jobs
}

type jobKey struct{ Site, Query, Job int }

type readRec struct {
	name       string
	start, end time.Duration
}

func newProbes(tr *tracer) *probes { return &probes{tr: tr} }

// beginRep clears the per-rep state. jobsPerQuery > 0 opens the fair-share
// window (multi-query reps only).
func (p *probes) beginRep(jobsPerQuery int64) {
	p.mu.Lock()
	p.grantAt = make(map[jobKey]time.Duration)
	p.pending = make(map[jobKey][]readRec)
	p.firstGrant = 0
	p.lastCommit = make(map[int]time.Duration)
	p.agentSpan = make(map[int]int)
	p.repSpanIdx = -1
	p.fairOpen = jobsPerQuery > 0
	p.fairTotal = jobsPerQuery
	p.fairGrants = make(map[int]int64)
	p.mu.Unlock()
}

func (p *probes) repSpan() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.repSpanIdx
}

// timedSource wraps one chunk.Source layer. It always counts reads and
// failures; while the tracer is on it also times each read.
type timedSource struct {
	inner chunk.Source
	p     *probes
	l     *layer
	name  string
	site  int // the reading cluster's site
	jobOf func(chunk.Ref) int
}

func (s *timedSource) ReadChunk(ref chunk.Ref) ([]byte, error) {
	s.l.attempts.Add(1)
	if !s.p.tr.on.Load() {
		data, err := s.inner.ReadChunk(ref)
		if err != nil {
			s.l.failures.Add(1)
		}
		return data, err
	}
	start := s.p.tr.now()
	data, err := s.inner.ReadChunk(ref)
	end := s.p.tr.now()
	if err != nil {
		s.l.failures.Add(1)
		return nil, err
	}
	s.l.observe(end-start, len(data))
	if s.p.tr.keep.Load() {
		k := jobKey{Site: s.site, Query: -1, Job: s.jobOf(ref)}
		s.p.mu.Lock()
		s.p.pending[k] = append(s.p.pending[k], readRec{s.name, start, end})
		s.p.mu.Unlock()
	}
	return data, nil
}

// jobIndex maps a chunk ref to its job id: the chunk's position in the
// index's canonical order, which is how jobs.NewPool numbers jobs.
func jobIndex(ix *chunk.Index) func(chunk.Ref) int {
	first := make([]int, len(ix.Files))
	n := 0
	for fi, f := range ix.Files {
		first[fi] = n
		n += len(f.Chunks)
	}
	return func(ref chunk.Ref) int { return first[ref.File] + ref.Seq }
}

// timedClient wraps a master's head session. registered is closed after the
// first successful RegisterSite, which is how set-up knows the site is up.
type timedClient struct {
	inner      cluster.QueryClient
	p          *probes
	site       int
	registered chan struct{}
	once       sync.Once
}

func (c *timedClient) RegisterSite(hello protocol.Hello) (protocol.SiteSpec, error) {
	spec, err := c.inner.RegisterSite(hello)
	if err == nil {
		c.once.Do(func() { close(c.registered) })
	}
	return spec, err
}

func (c *timedClient) QuerySpec(site, query int) (protocol.JobSpec, error) {
	if !c.p.tr.on.Load() {
		return c.inner.QuerySpec(site, query)
	}
	start := c.p.tr.now()
	spec, err := c.inner.QuerySpec(site, query)
	end := c.p.tr.now()
	c.p.spec.observe(end-start, len(spec.Params)+len(spec.Index))
	c.p.tr.add(span{Name: "head.query_spec", Start: start, End: end,
		Parent: c.agentSpan(), Query: query, Job: -1, Site: c.site})
	return spec, err
}

// agentParentLocked is the span a site's spans hang under in this rep, -1
// when there is none. Caller holds p.mu.
func (p *probes) agentParentLocked(site int) int {
	if i, ok := p.agentSpan[site]; ok {
		return i
	}
	return -1
}

func (c *timedClient) agentSpan() int {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	return c.p.agentParentLocked(c.site)
}

func (c *timedClient) Poll(req protocol.PollRequest) (protocol.PollReply, error) {
	p := c.p
	if !p.tr.on.Load() {
		return c.inner.Poll(req)
	}
	start := p.tr.now()
	rep, err := c.inner.Poll(req)
	end := p.tr.now()
	if err != nil {
		return rep, err
	}
	p.poll.observe(end-start, 0)
	granted := 0
	p.mu.Lock()
	for _, qj := range rep.Queries {
		granted += len(qj.Jobs)
		for _, j := range qj.Jobs {
			p.grantAt[jobKey{c.site, qj.Query, j.ID}] = end
		}
		if p.fairOpen {
			p.fairGrants[qj.Query] += int64(len(qj.Jobs))
			if p.fairGrants[qj.Query] >= p.fairTotal {
				p.fairOpen = false
			}
		}
	}
	if granted > 0 && p.firstGrant == 0 {
		p.firstGrant = end
	}
	parent := p.agentParentLocked(c.site)
	p.mu.Unlock()
	p.grants.Add(int64(granted))
	if granted == 0 && len(rep.Done) == 0 && len(rep.Dropped) == 0 {
		p.emptyPolls.Add(1)
	}
	p.tr.add(span{Name: "head.poll", Start: start, End: end, Parent: parent, Query: -1, Job: -1, Site: c.site})
	return rep, nil
}

func (c *timedClient) CompleteJobs(done protocol.JobsDone) ([]int, error) {
	p := c.p
	p.commit.attempts.Add(int64(len(done.Jobs)))
	if !p.tr.on.Load() {
		dups, err := c.inner.CompleteJobs(done)
		p.dupCommits.Add(int64(len(dups)))
		return dups, err
	}
	start := p.tr.now()
	dups, err := c.inner.CompleteJobs(done)
	end := p.tr.now()
	if err != nil {
		return dups, err // the agent gives up, the query fails and so does the run
	}
	p.dupCommits.Add(int64(len(dups)))
	p.commit.observe(end-start, 0)
	keep := p.tr.keep.Load()
	for _, j := range done.Jobs {
		k := jobKey{c.site, done.Query, j.ID}
		p.mu.Lock()
		granted, ok := p.grantAt[k]
		delete(p.grantAt, k)
		if end > p.lastCommit[c.site] {
			p.lastCommit[c.site] = end
		}
		rk := jobKey{c.site, -1, j.ID}
		recs := p.pending[rk]
		delete(p.pending, rk)
		parent := p.agentParentLocked(c.site)
		p.mu.Unlock()
		if !ok {
			granted = start
		}
		p.jobLatency.observe(end-granted, 0)
		if !keep {
			continue
		}
		c.emitJob(parent, done.Query, j.ID, granted, start, end, recs)
	}
	return dups, nil
}

// emitJob writes one job's span tree: job ⊃ {retrieve ⊃ {the source
// wrappers, outermost first; chunk.verify}, head.commit}. The agent commits
// right after its retrieval returns, so the gap between the outermost source
// wrapper returning and the commit call starting is the agent's own
// VerifyingSource pass, seen from outside.
func (c *timedClient) emitJob(parent, query, job int, granted, cStart, cEnd time.Duration, recs []readRec) {
	tr := c.p.tr
	mk := func(name string, start, end time.Duration, parent int) int {
		return tr.add(span{Name: name, Start: start, End: end, Parent: parent, Query: query, Job: job, Site: c.site})
	}
	jobSpan := mk("job", granted, cEnd, parent)
	if len(recs) > 0 {
		sort.SliceStable(recs, func(a, b int) bool {
			if recs[a].start != recs[b].start {
				return recs[a].start < recs[b].start
			}
			return recs[a].end > recs[b].end
		})
		retrieve := mk("retrieve", recs[0].start, cStart, jobSpan)
		inner := retrieve
		for _, r := range recs {
			inner = mk(r.name, r.start, r.end, inner)
		}
		mk("chunk.verify", recs[0].end, cStart, retrieve)
	}
	mk("head.commit", cStart, cEnd, jobSpan)
}

func (c *timedClient) Heartbeat(site int) error { return c.inner.Heartbeat(site) }

func (c *timedClient) Checkpoint(cs protocol.CheckpointSave) error { return c.inner.Checkpoint(cs) }

func (c *timedClient) SubmitResult(res protocol.ReductionResult) error {
	p := c.p
	p.submit.attempts.Add(1)
	p.robjBytes.Add(int64(len(res.Object)))
	p.robjCount.Add(1)
	if !p.tr.on.Load() {
		return c.inner.SubmitResult(res)
	}
	start := p.tr.now()
	err := c.inner.SubmitResult(res)
	end := p.tr.now()
	if err != nil {
		return err
	}
	p.submit.observe(end-start, len(res.Object))
	p.tr.add(span{Name: "head.submit_result", Start: start, End: end,
		Parent: c.agentSpan(), Query: res.Query, Job: -1, Site: c.site})
	return nil
}

var _ cluster.QueryClient = (*timedClient)(nil)

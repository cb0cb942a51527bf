// Package cluster implements one cluster's runtime: a MASTER that keeps the
// cluster fed by on-demand group requests to the head node, and SLAVE
// workers that retrieve assigned chunks (with multiple retrieval threads)
// and fold them through the Generalized Reduction engine. The master serves
// every query the head admits over one registration and one session; when a
// query's global pool is exhausted the cluster performs its local merge and
// ships that query's reduction object to the head, which finishes the global
// reduction.
//
// With fault tolerance enabled on the head, the runtime additionally renews
// its liveness lease with heartbeats, commits every job to the head BEFORE
// folding it (so the head can deduplicate speculative and recovered
// re-executions), ships periodic reduction-object checkpoints, and resumes
// from the checkpoint the head hands back after a crash-restart.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/chunk"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/stagecache"
	"repro/internal/stats"
)

// waitPoll bounds how long an idle master waits for the head's next event:
// it asks the head to hold its poll for this long (PollRequest.ParkNS) and
// sits out the remainder itself when an empty answer comes back early.
const waitPoll = 20 * time.Millisecond

// AgentConfig parameterizes a long-lived multi-query cluster agent: one
// registration and one head session serving every query the head admits,
// with per-query reduction engines, stats and checkpoints kept isolated.
type AgentConfig struct {
	// Site is the storage site co-located with this cluster.
	Site int
	// Name labels the cluster in logs and reports.
	Name string
	// Cores is the number of processing threads per query engine. Required.
	Cores int
	// RetrievalThreads is the number of concurrent chunk retrievals used
	// while working one query's grant batch. Defaults to 2. Chunks smaller
	// than the unit-group budget run further ahead of the commits: up to
	// RetrievalThreads groups' worth of bytes are out at once.
	RetrievalThreads int
	// Tuning carries the shared knobs (GroupBytes,
	// CheckpointEveryJobs); see config.Tuning.
	Tuning config.Tuning
	// Sources maps site id → Source; used for every query whose index this
	// agent serves. Either Sources or SourceBuilder is required.
	Sources map[int]chunk.Source
	// SourceBuilder constructs sources per query once its index is known.
	SourceBuilder func(ix *chunk.Index) (map[int]chunk.Source, error)
	// SourceLabels names sources for byte accounting; optional.
	SourceLabels map[int]string
	// Cache, when non-nil, interposes the burst-side partition cache on
	// every remote-site source: reads go memory tier → replica → origin,
	// fresh origin reads spill asynchronously to the replica, and the
	// master pre-stages each granted remote chunk in grant order. Reads of
	// the cluster's own site bypass the cache; nil disables it entirely.
	// Entries are keyed by (site, file, chunk), so every query served
	// through one Cache must read the same dataset.
	Cache *stagecache.Cache
	// Head connects to the head node. Required.
	Head QueryClient
	// Retry is the retrieval fault-tolerance policy.
	Retry Retry
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
	// Obs, when non-nil, collects agent-side metrics (job counters,
	// per-source retrieval latency histograms, in-flight gauge). Per-job
	// retrieve/process spans and each query's local-merge span go to the
	// head's merged trace when the head collects one, and otherwise to this
	// Obs's tracer when it is enabled — pid Site+1 either way.
	Obs *obs.Obs
}

func (c *AgentConfig) applyDefaults() error {
	if c.Cores <= 0 {
		return fmt.Errorf("cluster: Cores must be positive, got %d", c.Cores)
	}
	if c.Head == nil {
		return errors.New("cluster: Head client is required")
	}
	if len(c.Sources) == 0 && c.SourceBuilder == nil {
		return errors.New("cluster: Sources or SourceBuilder is required")
	}
	if c.RetrievalThreads <= 0 {
		c.RetrievalThreads = 2
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// agentQuery is the agent-side state of one active query: its own reduction
// engine, sources, stats collector and recovered checkpoint object, fully
// isolated from every other query the agent serves. Its protocol state is
// in the agent's AgentCore.
type agentQuery struct {
	id        int
	spec      protocol.JobSpec
	reducer   core.Reducer
	engine    *core.Engine
	sources   map[int]chunk.Source
	collector *stats.Collector
	// raw holds the sources as configured, before the cache and the checksum
	// verifier wrapped them: the pre-stager must not loop through the cache it
	// feeds. Nil without a cache.
	raw     map[int]chunk.Source
	dataset uint64 // the stage cache's identity of the data: a hash of spec.Index

	// resumeObj is the object recovered from the head after a crash-restart;
	// it is never mutated — each checkpoint and the final merge fold it into
	// a fresh engine snapshot.
	resumeObj core.Object

	// mFolded counts this query's folds with query/site labels
	// (cluster_jobs_folded_total{query,site}).
	mFolded *obs.Counter
}

// agentRun carries the per-RunAgent state shared across queries.
type agentRun struct {
	cfg *AgentConfig
	// groupBytes is G, the engines' unit-group budget: Tuning.GroupBytes or
	// core.DefaultGroupBytes. A poll asks for max(Cores, 4) jobs and at
	// least that many groups' worth of bytes, and a batch's retrievals run
	// up to RetrievalThreads × G bytes ahead of its settled jobs.
	groupBytes int64
	// core is the agent's protocol state; only the poll loop's goroutine
	// (which also commits and folds every batch) calls it.
	core      *AgentCore
	clk       obs.Clock
	tr        *obs.Tracer
	queries   map[int]*agentQuery
	mLocal    *obs.Counter
	mStolen   *obs.Counter
	mDups     *obs.Counter
	mCkpts    *obs.Counter
	mRetries  *obs.Counter
	gInflight *obs.Gauge
	// bySite is resolved once per source site (in ensure, on the poll loop's
	// goroutine; the retrieval lanes only read it), never per job.
	bySite map[int]siteObs

	// Distributed-trace state. traceOn flips when the head's SiteSpec
	// confirms the Hello's trace advert; only then do spans accumulate and
	// completion messages carry non-zero TraceContexts.
	traceOn  bool
	nextSpan atomic.Uint64
	spanMu   sync.Mutex
	spans    []protocol.WireSpan

	// batch holds the rules of the batch being worked, slots each of its
	// retrievals by job index, group the group being settled and groupJobs
	// its jobs. kept holds each query's last group of the batch just served,
	// which the next poll commits; commits is that poll's outgoing list. All
	// keep their capacity from batch to batch and poll to poll.
	batch     Batch
	slots     []retrieved
	group     []retrieved
	groupJobs []jobs.Job
	kept      []keptGroup
	commits   []protocol.JobsDone
}

// keptGroup is one query's last group of a grant batch, held for the next
// poll to commit: the group itself (its buffers included) and its jobs in
// group order.
type keptGroup struct {
	q     *agentQuery
	group []retrieved
	jobs  []jobs.Job
}

// siteObs is what the agent keeps per source site: the byte-accounting
// label and the cluster_retrieval_seconds_<label> histogram.
type siteObs struct {
	label string
	hRetr *obs.Histogram
}

// Agent-side trace thread IDs within the site's merged-trace process
// (pid site+1 at the head): job processing and chunk retrieval.
const (
	agentTIDJobs = 1
	agentTIDRetr = 2
)

// spansToHead reports whether q's spans travel to the head's merged trace.
func (a *agentRun) spansToHead(q *agentQuery) bool {
	return a.traceOn && !q.spec.Trace.Zero()
}

// tracing reports whether spans for q have anywhere to go.
func (a *agentRun) tracing(q *agentQuery) bool {
	return a.spansToHead(q) || a.tr.Enabled()
}

// addSpan records one completed span of q: buffered for shipment on the next
// poll when the head merges this session's spans into its trace, written to
// the agent's own tracer otherwise. One sink, so an in-process deployment
// sharing one tracer with its head never sees a span twice.
func (a *agentRun) addSpan(q *agentQuery, name, cat string, tid, job int, start, end time.Duration) {
	tc := a.queryTrace(q)
	if tc.Zero() {
		a.tr.Complete(a.cfg.Site+1, tid, cat, name, start, end,
			obs.Args{"query": q.id, "job": job, "site": a.cfg.Site})
		return
	}
	a.spanMu.Lock()
	a.spans = append(a.spans, protocol.WireSpan{
		Trace: tc, Name: name, Cat: cat, TID: tid,
		Query: q.id, Job: job, Start: int64(start), Dur: int64(end - start),
	})
	a.spanMu.Unlock()
}

// takeSpans drains the span buffer for a poll shipment.
func (a *agentRun) takeSpans() []protocol.WireSpan {
	a.spanMu.Lock()
	defer a.spanMu.Unlock()
	s := a.spans
	a.spans = nil
	return s
}

// queryTrace returns the TraceContext to stamp on messages and spans for q:
// the query's confirmed TraceID with a fresh agent-local span ID, or zero
// when the session is untraced.
func (a *agentRun) queryTrace(q *agentQuery) protocol.TraceContext {
	if !a.spansToHead(q) {
		return protocol.TraceContext{}
	}
	return protocol.TraceContext{TraceID: q.spec.Trace.TraceID, SpanID: a.nextSpan.Add(1)}
}

// RunAgent runs one cluster's multi-query agent until the head announces
// shutdown (returns nil) or ctx is canceled (returns ctx.Err()). The agent
// registers once, then interleaves jobs from every admitted query out of a
// single poll loop: each query gets its own reduction engine and stats, a
// drained query's object ships from the poll loop (the agent serves nothing
// else until the head has answered it), and canceled queries are discarded
// on the head's Dropped notice. A fenced answer to any head call ends the
// incarnation: the agent drops the rest of that reply and all local query
// state (the head already reissued anything not checkpointed), registers
// again and polls.
func RunAgent(ctx context.Context, cfg AgentConfig) error {
	if err := cfg.applyDefaults(); err != nil {
		return err
	}
	reg := cfg.Obs.Metrics()
	a := &agentRun{
		cfg:        &cfg,
		groupBytes: core.DefaultGroupBytes,
		clk:        cfg.Obs.ClockOrWall(),
		tr:         cfg.Obs.Trace(),
		queries:    make(map[int]*agentQuery),
		mLocal:     reg.Counter("cluster_jobs_local_total"),
		mStolen:    reg.Counter("cluster_jobs_stolen_total"),
		mDups:      reg.Counter("cluster_dup_jobs_total"),
		mCkpts:     reg.Counter("cluster_checkpoints_total"),
		mRetries:   reg.Counter("cluster_retrieval_retries_total"),
		gInflight:  reg.Gauge("cluster_retrievals_inflight"),
		bySite:     make(map[int]siteObs),
		core:       NewAgentCore(cfg.Site, cfg.Name, cfg.Cores, cfg.Tuning.CheckpointEveryJobs),
	}
	if cfg.Tuning.GroupBytes > 0 {
		a.groupBytes = int64(cfg.Tuning.GroupBytes)
	}
	bufpool.Register(reg)

	siteSpec, err := a.register()
	if err != nil {
		return err
	}
	if !a.traceOn {
		// Spans stay in this process: lay its lanes out as the head would.
		pid := cfg.Site + 1
		a.tr.NameProcess(pid, fmt.Sprintf("site %d (%s)", cfg.Site, cfg.Name))
		a.tr.NameThread(pid, agentTIDJobs, "jobs")
		a.tr.NameThread(pid, agentTIDRetr, "retrieval")
	}

	// Heartbeats renew the agent's lease for the whole session.
	stopHB := make(chan struct{})
	var hbWG sync.WaitGroup
	defer hbWG.Wait()
	defer close(stopHB) // LIFO: stop the ticker goroutine, then join it
	if hb := time.Duration(siteSpec.HeartbeatEvery); hb > 0 {
		hbWG.Add(1)
		go func() {
			defer hbWG.Done()
			t := time.NewTicker(hb)
			defer t.Stop()
			for {
				select {
				case <-stopHB:
					return
				case <-t.C:
					_ = cfg.Head.Heartbeat(cfg.Site)
				}
			}
		}()
	}
	defer a.discardAll()
	defer a.settleKept(nil, errAgentExit)

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Nothing is retrieving between batches, so the poll can park: the
		// head holds an empty answer until it has grants or a notice for this
		// site, for at most the waitPoll an idle agent would otherwise sleep.
		// A poll that commits the last batch's kept groups is never held. The
		// byte floor makes one round trip fetch a group per core however
		// small the chunks; chunks of G or more leave it at N jobs.
		n := max(cfg.Cores, 4)
		req := protocol.PollRequest{Site: cfg.Site, N: n, Bytes: int64(n) * a.groupBytes, ParkNS: int64(waitPoll)}
		if len(a.kept) > 0 {
			req.Commits = a.outgoing()
		}
		polled := time.Now()
		if a.traceOn {
			req.Spans = a.takeSpans()
			req.NowNS = int64(a.clk.Now())
		}
		rep, err := cfg.Head.Poll(req)
		if err != nil {
			if len(req.Spans) > 0 {
				// Keep the spans for the next attempt (order within the merged
				// trace comes from timestamps, not shipment order).
				a.spanMu.Lock()
				a.spans = append(req.Spans, a.spans...)
				a.spanMu.Unlock()
			}
			err = fmt.Errorf("cluster %s: poll: %w", cfg.Name, err)
		}
		// The poll's commits fold before anything in its reply is served, so a
		// Done notice never overtakes a fold.
		err = a.settleKept(rep.Acks, err)
		worked := false
		if err == nil {
			if worked, err = a.serve(ctx, rep); err != nil {
				a.settleKept(nil, err)
			}
		}
		if fault.IsFenced(err) {
			// The head reissued every fold no landed checkpoint covers; the
			// checkpoints come back through each query's re-fetched spec.
			a.discardAll()
			a.core.Reset()
			cfg.Logf("cluster %s: fenced; re-registering", cfg.Name)
			if _, err := a.register(); err != nil {
				return err
			}
			continue
		}
		if err != nil {
			return err
		}
		if rep.Drain {
			// Decommissioned: every obligation is settled (the head only sets
			// Drain once this site holds no jobs and has submitted every owed
			// reduction object, and the Done loop above ran before this check).
			cfg.Logf("cluster %s: drained; exiting", cfg.Name)
			return nil
		}
		if rep.Shutdown {
			return nil
		}
		if rest := waitPoll - time.Since(polled); !worked && len(req.Commits) == 0 && rest > 0 {
			// Idle, and the answer came back before the park ran out (a head
			// that does not hold polls, or a notice for a query already gone):
			// sit out the remainder so an empty answer can never make the loop
			// spin. New queries may be admitted at any time, so the agent never
			// exits on an empty grant. A poll that carried commits was answered
			// without a hold: the next one, empty-handed, parks instead.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(rest):
			}
		}
	}
}

// serve acts on one poll reply: it works each query's grants, ships the
// object of each query the head is Done with, and drops each canceled
// query. It reports whether there was anything to do, and stops at the
// first error.
func (a *agentRun) serve(ctx context.Context, rep protocol.PollReply) (worked bool, err error) {
	for _, qj := range rep.Queries {
		q, err := a.ensure(qj.Query)
		if err != nil {
			if errors.Is(err, head.ErrQueryCanceled) || errors.Is(err, head.ErrUnknownQuery) {
				// Canceled between assignment and the spec fetch; its
				// grants need no commit — the pool left with the query.
				continue
			}
			return worked, err
		}
		a.prestage(q, qj.Jobs)
		if err := a.process(ctx, q, qj.Jobs); err != nil {
			return worked, err
		}
		worked = true
	}
	for _, id := range rep.Done {
		if err := a.finalize(id); err != nil {
			return worked, err
		}
		worked = true
	}
	for _, id := range rep.Dropped {
		a.discard(id)
		worked = true
	}
	return worked, nil
}

// register opens the agent's session, at start and again after a fence.
// The Hello's trace advert is confirmed iff the head's tracer is live.
func (a *agentRun) register() (protocol.SiteSpec, error) {
	spec, err := a.cfg.Head.RegisterSite(a.core.Hello())
	if err != nil {
		return spec, fmt.Errorf("cluster %s: register: %w", a.cfg.Name, err)
	}
	a.traceOn = !spec.Trace.Zero()
	return spec, nil
}

// ensure returns the agent's state for query id, fetching the spec and
// building the engine on first sight (or on the first sight after a
// recovery, resuming from the spec's checkpoint).
func (a *agentRun) ensure(id int) (*agentQuery, error) {
	if q, ok := a.queries[id]; ok {
		return q, nil
	}
	cfg := a.cfg
	spec, err := cfg.Head.QuerySpec(cfg.Site, id)
	if err != nil {
		return nil, err
	}
	ix, err := chunk.ReadIndex(bytes.NewReader(spec.Index))
	if err != nil {
		return nil, fmt.Errorf("cluster %s: bad index in query %d spec: %w", cfg.Name, id, err)
	}
	sources := cfg.Sources
	if len(sources) == 0 {
		if sources, err = cfg.SourceBuilder(ix); err != nil {
			return nil, fmt.Errorf("cluster %s: building sources for query %d: %w", cfg.Name, id, err)
		}
	}
	for site := range sources {
		if _, ok := a.bySite[site]; !ok {
			label := sourceLabelFor(cfg.SourceLabels, cfg.Site, site)
			a.bySite[site] = siteObs{label: label,
				hRetr: cfg.Obs.Metrics().Histogram("cluster_retrieval_seconds_"+label, nil)}
		}
	}
	// The cache wraps only remote-site reads; checksum verification stays
	// outermost, so replica-served bytes are verified exactly like origin
	// bytes.
	var raw map[int]chunk.Source
	var dataset uint64
	if cfg.Cache != nil {
		h := fnv.New64a()
		h.Write(spec.Index)
		raw, dataset = sources, h.Sum64()
		cached := make(map[int]chunk.Source, len(sources))
		for site, src := range sources {
			if site != cfg.Site {
				src = cfg.Cache.WrapDataset(dataset, site, src)
			}
			cached[site] = src
		}
		sources = cached
	}
	if ix.HasChecksums() {
		verified := make(map[int]chunk.Source, len(sources))
		for site, src := range sources {
			verified[site] = chunk.VerifyingSource{Source: src, Index: ix}
		}
		sources = verified
	}
	reducer, err := core.NewReducer(spec.App, spec.Params)
	if err != nil {
		return nil, fmt.Errorf("cluster %s: query %d: %w", cfg.Name, id, err)
	}
	collector := &stats.Collector{}
	q := &agentQuery{
		id: id, spec: spec, reducer: reducer,
		sources: sources, raw: raw, dataset: dataset, collector: collector,
		mFolded: cfg.Obs.Metrics().Counter("cluster_jobs_folded_total",
			"query", strconv.Itoa(id), "site", strconv.Itoa(cfg.Site)),
	}
	// The checkpoint is decoded before the engine exists: NewEngine starts
	// the worker goroutines, and a garbled checkpoint must not strand them.
	if len(spec.Checkpoint) > 0 {
		obj, err := a.core.Resume(id, spec.Checkpoint, nil)
		if err != nil {
			return nil, fmt.Errorf("cluster %s: bad checkpoint in query %d spec: %w", cfg.Name, id, err)
		}
		if q.resumeObj, err = reducer.Decode(obj); err != nil {
			return nil, fmt.Errorf("cluster %s: decoding query %d checkpoint: %w", cfg.Name, id, err)
		}
		cfg.Logf("cluster %s: query %d resumes from its checkpoint", cfg.Name, id)
	}
	// RetrievalThreads is the in-flight depth on both sides of the hand-off:
	// that many lanes fetch, and the engine queue takes that many chunks, so a
	// burst of completions never blocks the lanes needlessly.
	q.engine, err = core.NewEngine(core.EngineConfig{
		Reducer:    reducer,
		Workers:    cfg.Cores,
		UnitSize:   spec.UnitSize,
		GroupBytes: int(a.groupBytes),
		QueueDepth: cfg.RetrievalThreads,
		Collector:  collector,
		// Chunk buffers come from bufpool (sources and the objstore client
		// read into pooled buffers); the engine is the last owner and
		// returns each one after its units are folded.
		Release: bufpool.Put,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster %s: query %d: %w", cfg.Name, id, err)
	}
	a.queries[id] = q
	cfg.Logf("cluster %s: serving query %d (app %q)", cfg.Name, id, spec.App)
	return q, nil
}

// prestage pushes one grant batch's remote chunks toward the cache's replica
// in grant order; the stager skips anything a read-through already cached,
// so the overlap with the retrieval lanes is cheap. A no-op without a cache.
func (a *agentRun) prestage(q *agentQuery, js []jobs.Job) {
	if a.cfg.Cache == nil {
		return
	}
	var bySite map[int][]chunk.Ref
	for _, j := range js {
		if j.Site == a.cfg.Site {
			continue
		}
		if bySite == nil {
			bySite = make(map[int][]chunk.Ref)
		}
		bySite[j.Site] = append(bySite[j.Site], j.Ref)
	}
	for site, refs := range bySite {
		a.cfg.Cache.Prestage(q.dataset, site, q.raw[site], refs)
	}
}

// process works one query's grant batch by the rules of Batch:
// RetrievalThreads lanes retrieve, up to RetrievalThreads × G bytes ahead,
// while this goroutine commits and folds. A group takes the first retrieved
// job plus every other one already waiting; it never waits for more. The
// lanes get job indices only from this goroutine, at most Batch.Depth at a
// time, and both channels hold that many, so no send blocks. It returns
// once the whole batch is folded, discarded or kept, and the poll loop
// folds kept groups before it serves the next reply, so a Done notice can
// never race this batch's folds.
func (a *agentRun) process(ctx context.Context, q *agentQuery, js []jobs.Job) error {
	b := &a.batch
	threads := a.cfg.RetrievalThreads
	b.Grant(js, threads, int64(threads)*a.groupBytes)
	a.slots = slices.Grow(a.slots[:0], len(js))[:len(js)]
	depth := b.Depth()
	next := make(chan int, depth)
	got := make(chan retrieved, depth)
	var wg sync.WaitGroup
	for range min(threads, len(js)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				got <- a.retrieve(q, i, js[i])
			}
		}()
	}
	defer func() {
		close(next)
		for range next { // a failed batch starts no more retrievals
		}
		wg.Wait()
		close(got)
		for r := range got {
			bufpool.Put(r.data) // retrieved after the batch failed
		}
		clear(a.slots) // every buffer is the engine's, bufpool's or kept
		clear(a.group)
	}()
	arrive := func(r retrieved) {
		a.slots[r.i] = r
		b.Retrieved(r.i, r.err == nil)
	}
	for !b.Done() {
		for i, ok := b.Start(); ok; i, ok = b.Start() {
			next <- i
		}
		select {
		case r := <-got:
			arrive(r)
		case <-ctx.Done():
			return ctx.Err()
		}
		for len(got) > 0 { // only this goroutine receives: no wait
			arrive(<-got)
		}
		g, act, _ := b.Group()
		a.group = a.group[:0]
		for _, i := range g {
			a.group = append(a.group, a.slots[i])
		}
		if act == Keep {
			a.keep(q, js, a.group)
			return nil
		}
		// A group with a failed retrieval (Fail) settles in commit without
		// reaching the head, and commit returns the retrieval's error.
		if err := a.commit(q, js, a.group); err != nil {
			return err
		}
		b.Acked()
	}
	return nil
}

// retrieved is one lane's result: job js[i]'s chunk (a pooled buffer the
// receiver owns) or the retrieval error, and when the retrieval started.
type retrieved struct {
	i     int
	data  []byte
	err   error
	start time.Duration
}

// retrieve reads job j (js[i]) of q through its source, recording the
// retrieval's stats and span.
func (a *agentRun) retrieve(q *agentQuery, i int, j jobs.Job) retrieved {
	cfg := a.cfg
	r := retrieved{i: i, start: a.clk.Now()}
	src, ok := q.sources[j.Site]
	if !ok {
		r.err = fmt.Errorf("cluster %s: no source for site %d", cfg.Name, j.Site)
		return r
	}
	so := a.bySite[j.Site]
	a.gInflight.Add(1)
	r.data, r.err = retrieveWithRetry(cfg.Name, cfg.Retry, cfg.Logf, src, j, a.mRetries)
	elapsed := a.clk.Now() - r.start
	a.gInflight.Add(-1)
	if r.err != nil {
		r.err = fmt.Errorf("cluster %s: retrieving %v: %w", cfg.Name, j.Ref, r.err)
		return r
	}
	q.collector.AddRetrieval(so.label, elapsed, int64(len(r.data)))
	so.hRetr.Observe(elapsed)
	if a.tracing(q) {
		a.addSpan(q, "retrieve", "retrieval", agentTIDRetr, j.ID, r.start, r.start+elapsed)
	}
	return r
}

// commit sends one mid-batch group of retrieved jobs to the head on a
// commit poll, answered with the group's ack alone, and then settles it.
func (a *agentRun) commit(q *agentQuery, js []jobs.Job, group []retrieved) error {
	done := protocol.JobsDone{Site: a.cfg.Site, Query: q.id}
	var err error
	done.Jobs, err = groupJobs(a.groupJobs[:0], js, group)
	a.groupJobs = done.Jobs // settle below is done with it before the next group
	var dups []int
	if err == nil {
		done.Trace = a.queryTrace(q)
		dups, err = a.cfg.Head.CompleteJobs(done)
	}
	return a.settle(q, done.Jobs, group, dups, err)
}

// keep stashes q's last group of a batch, every retrieval in it good, for
// the next poll to commit; the stash owns the group's buffers from here on.
func (a *agentRun) keep(q *agentQuery, js []jobs.Job, group []retrieved) {
	n := len(a.kept)
	a.kept = slices.Grow(a.kept, 1)[:n+1] // the slot keeps its old capacity
	k := &a.kept[n]
	k.jobs, _ = groupJobs(k.jobs[:0], js, group)
	k.q, k.group = q, append(k.group[:0], group...)
}

// outgoing lists the kept groups as the next poll's commits.
func (a *agentRun) outgoing() []protocol.JobsDone {
	a.commits = a.commits[:0]
	for _, k := range a.kept {
		a.commits = append(a.commits, protocol.JobsDone{
			Site: a.cfg.Site, Query: k.q.id, Jobs: k.jobs, Trace: a.queryTrace(k.q)})
	}
	return a.commits
}

// errAgentExit settles the groups an exiting agent still keeps.
var errAgentExit = errors.New("cluster: agent exited before committing")

// settleKept settles every kept group against the acks of the poll that
// carried it, one ack per group in order, and empties the stash. err, when
// set, is the poll's failure: nothing folds and every buffer goes back to
// bufpool. So does every buffer after the first failing ack or fold.
func (a *agentRun) settleKept(acks []protocol.JobsDoneAck, err error) error {
	if err == nil && len(acks) != len(a.kept) {
		err = fmt.Errorf("cluster %s: poll answered %d commits with %d acks", a.cfg.Name, len(a.kept), len(acks))
	}
	for i := range a.kept {
		k := &a.kept[i]
		var dups []int
		cerr := err
		if cerr == nil {
			dups, cerr = acks[i].Dup, ackErr(acks[i].Code, acks[i].Err)
		}
		err = a.settle(k.q, k.jobs, k.group, dups, cerr)
		clear(k.group) // the buffers are the engine's or bufpool's now
		k.q, k.group = nil, k.group[:0]
	}
	a.kept = a.kept[:0]
	return err
}

// groupJobs appends group's jobs, in group order, to dst and returns the
// first retrieval error among them.
func groupJobs(dst, js []jobs.Job, group []retrieved) ([]jobs.Job, error) {
	var err error
	for _, r := range group {
		dst = append(dst, js[r.i])
		if err == nil {
			err = r.err
		}
	}
	return dst, err
}

// settle folds the acknowledged jobs of one committed group. Commit BEFORE
// folding: exactly-once reduction per query (duplicate completions —
// speculative copies, recovered re-executions, or commits for a canceled
// query — must not be folded). err is the commit's failure, if any, and
// folds nothing. Every buffer in the group goes to the engine or back to
// bufpool exactly once, whatever fails; the first failure is returned.
func (a *agentRun) settle(q *agentQuery, js []jobs.Job, group []retrieved, dups []int, err error) error {
	for k, r := range group {
		j := js[k]
		switch {
		case err != nil:
			bufpool.Put(r.data)
		case slices.Contains(dups, j.ID):
			bufpool.Put(r.data)
			a.mDups.Inc()
		default:
			err = a.fold(q, j, r.data)
		}
		if r.err == nil && a.tracing(q) {
			a.addSpan(q, "process", "job", agentTIDJobs, j.ID, r.start, a.clk.Now())
		}
	}
	return err
}

// fold feeds one committed job's chunk to q's engine (which then owns the
// buffer), credits it, and ships a checkpoint when the core says one is due.
// Folds and checkpoints both run on the poll loop's goroutine, so a
// checkpoint covers a job exactly when its snapshot holds the fold.
func (a *agentRun) fold(q *agentQuery, j jobs.Job, data []byte) error {
	cfg := a.cfg
	if err := q.engine.Submit(data); err != nil {
		bufpool.Put(data)
		return err
	}
	if a.core.Committed(q.id, j, false); a.core.CheckpointDue(q.id) {
		if err := a.checkpoint(q); err != nil {
			if fault.IsFenced(err) {
				return err
			}
			cfg.Logf("cluster %s: query %d checkpoint failed: %v", cfg.Name, q.id, err)
		}
	}
	q.mFolded.Inc()
	if j.Site != cfg.Site {
		a.mStolen.Inc()
	} else {
		a.mLocal.Inc()
	}
	return nil
}

// checkpoint quiesces one query's engine and ships its merged object plus
// covered job IDs to the head, tagged with the query.
func (a *agentRun) checkpoint(q *agentQuery) error {
	cfg := a.cfg
	snap, err := q.engine.Snapshot()
	var enc []byte
	if err == nil {
		enc, err = q.merged(snap)
	}
	if err != nil {
		return err
	}
	save, n := a.core.Checkpoint(q.id, enc)
	if n == 0 {
		return nil
	}
	save.Trace = a.queryTrace(q)
	if err := cfg.Head.Checkpoint(save); err != nil {
		return err
	}
	a.core.Landed(q.id, n)
	a.mCkpts.Inc()
	cfg.Logf("cluster %s: query %d checkpoint %d shipped (%d jobs, %d bytes)",
		cfg.Name, q.id, save.Seq, n, len(save.Data))
	return nil
}

// finalize answers a Done notice for query id: local-merge the engine,
// fold in any recovered checkpoint object, and ship the result. The head
// expects a result even from a site that folded nothing for the query
// (ExpectAll queries) — that site contributes the reducer's identity object.
func (a *agentRun) finalize(id int) error {
	cfg := a.cfg
	q, ok := a.queries[id]
	if !ok {
		// Never saw a grant for this query (ExpectAll rule): contribute the
		// identity object so the head's expected-results count closes.
		var err error
		if q, err = a.ensure(id); err != nil {
			if errors.Is(err, head.ErrQueryCanceled) || errors.Is(err, head.ErrUnknownQuery) {
				return nil
			}
			return err
		}
	}
	delete(a.queries, id)
	// The local merge — engine drain, recovered-checkpoint merge, encode — is
	// the cluster's sync component for this query.
	start := a.clk.Now()
	obj, err := q.engine.Finish()
	if err != nil {
		return fmt.Errorf("cluster %s: query %d local reduction: %w", cfg.Name, id, err)
	}
	encoded, err := q.merged(obj)
	if err != nil {
		return fmt.Errorf("cluster %s: query %d reduction object: %w", cfg.Name, id, err)
	}
	end := a.clk.Now()
	q.collector.AddSync(end - start)
	if a.tracing(q) {
		a.addSpan(q, "local-merge", "sync", agentTIDJobs, -1, start, end)
	}
	b := q.collector.Breakdown()
	res := a.core.Ship(id, encoded)
	res.Trace = a.queryTrace(q)
	res.Processing, res.Retrieval, res.Sync = int64(b.Processing), int64(b.Retrieval), int64(b.Sync)
	if err := cfg.Head.SubmitResult(res); err != nil {
		if errors.Is(err, head.ErrQueryCanceled) || errors.Is(err, head.ErrUnknownQuery) {
			return nil // canceled while we merged; nothing to keep
		}
		return fmt.Errorf("cluster %s: query %d submitting result: %w", cfg.Name, id, err)
	}
	cfg.Logf("cluster %s: query %d done: %v; jobs %d local + %d stolen; bytes %v",
		cfg.Name, id, b, res.LocalJobs, res.StolenJobs, q.collector.BytesRetrieved())
	return nil
}

// merged folds the checkpoint object a restart resumed from into obj (an
// engine snapshot or the final object) and encodes the sum.
func (q *agentQuery) merged(obj core.Object) ([]byte, error) {
	if q.resumeObj != nil {
		if err := q.reducer.GlobalReduce(obj, q.resumeObj); err != nil {
			return nil, err
		}
	}
	return q.reducer.Encode(obj)
}

// discard drops all local state for a canceled query.
func (a *agentRun) discard(id int) {
	q, ok := a.queries[id]
	if !ok {
		return
	}
	delete(a.queries, id)
	a.core.Drop(id)
	_, _ = q.engine.Finish() // stop the workers, release buffers
	a.cfg.Logf("cluster %s: dropped query %d", a.cfg.Name, id)
}

// discardAll drops every active query's state (fencing recovery, teardown).
func (a *agentRun) discardAll() {
	for id := range a.queries {
		a.discard(id)
	}
}

func sourceLabelFor(labels map[int]string, own, site int) string {
	if l, ok := labels[site]; ok {
		return l
	}
	if site == own {
		return "local"
	}
	return fmt.Sprintf("site%d", site)
}

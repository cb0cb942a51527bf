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
	"sort"
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
	// while working one query's grant batch. Defaults to 2.
	RetrievalThreads int
	// Tuning carries the shared knobs (GroupBytes override,
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
	// RequestBatch is the job-group size per poll; defaults to max(Cores, 4).
	RequestBatch int
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
	if c.RequestBatch <= 0 {
		c.RequestBatch = c.Cores
		if c.RequestBatch < 4 {
			c.RequestBatch = 4
		}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// agentQuery is the agent-side state of one active query: its own reduction
// engine, sources, stats collector and checkpoint bookkeeping, fully
// isolated from every other query the agent serves.
type agentQuery struct {
	id        int
	spec      protocol.JobSpec
	reducer   core.Reducer
	engine    *core.Engine
	sources   map[int]chunk.Source
	collector *stats.Collector
	// fetched tallies, per source label, the chunk bytes of every batch this
	// query worked, for its "done" line; only the poll loop touches it.
	// (Tallied here rather than read back from the collector: see "Code
	// placement" in docs/PERFORMANCE.md.)
	fetched map[string]int64
	// raw holds the sources as configured, before the cache and the checksum
	// verifier wrapped them: the pre-stager must not loop through the cache it
	// feeds. Nil without a cache.
	raw map[int]chunk.Source

	// Checkpoint state: folds hold ckptMu.RLock, a checkpoint holds the write
	// lock while it quiesces the engine. resumeObj is the object recovered
	// from the head after a crash-restart; it is never mutated — each
	// checkpoint and the final merge fold it into a fresh engine snapshot.
	ckptMu    sync.RWMutex
	idsMu     sync.Mutex
	folded    []int
	ckptSeq   int
	foldedN   int64
	resumeObj core.Object

	// mFolded counts this query's folds with query/site labels
	// (cluster_jobs_folded_total{query,site}).
	mFolded *obs.Counter
}

// agentRun carries the per-RunAgent state shared across queries.
type agentRun struct {
	cfg       *AgentConfig
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
	// completion messages carry TraceContexts, so a session with an
	// untracing head stays bit-identical to the pre-trace wire protocol.
	traceOn  bool
	nextSpan atomic.Uint64
	spanMu   sync.Mutex
	spans    []protocol.WireSpan
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

// shipping reports whether q's spans travel to the head's merged trace.
func (a *agentRun) shipping(q *agentQuery) bool {
	return a.traceOn && !q.spec.Trace.Zero()
}

// tracing reports whether spans for q have anywhere to go.
func (a *agentRun) tracing(q *agentQuery) bool {
	return a.shipping(q) || a.tr.Enabled()
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
	if !a.shipping(q) {
		return protocol.TraceContext{}
	}
	return protocol.TraceContext{TraceID: q.spec.Trace.TraceID, SpanID: a.nextSpan.Add(1)}
}

// RunAgent runs one cluster's multi-query agent until the head announces
// shutdown (returns nil) or ctx is canceled (returns ctx.Err()). The agent
// registers once, then interleaves jobs from every admitted query out of a
// single poll loop: each query gets its own reduction engine and stats, each
// drained query's object ships asynchronously (the agent keeps serving the
// others), canceled queries are discarded on the head's Dropped notice, and
// a fencing rejection triggers re-registration with all local query state
// reset (the head already reissued anything not checkpointed).
func RunAgent(ctx context.Context, cfg AgentConfig) error {
	if err := cfg.applyDefaults(); err != nil {
		return err
	}
	reg := cfg.Obs.Metrics()
	a := &agentRun{
		cfg:       &cfg,
		clk:       cfg.Obs.ClockOrWall(),
		tr:        cfg.Obs.Trace(),
		queries:   make(map[int]*agentQuery),
		mLocal:    reg.Counter("cluster_jobs_local_total"),
		mStolen:   reg.Counter("cluster_jobs_stolen_total"),
		mDups:     reg.Counter("cluster_dup_jobs_total"),
		mCkpts:    reg.Counter("cluster_checkpoints_total"),
		mRetries:  reg.Counter("cluster_retrieval_retries_total"),
		gInflight: reg.Gauge("cluster_retrievals_inflight"),
		bySite:    make(map[int]siteObs),
	}
	bufpool.Register(reg)

	// The non-zero Hello.Trace adverts trace-propagation capability; the
	// head confirms with a non-zero SiteSpec.Trace iff its tracer is live.
	siteSpec, err := cfg.Head.RegisterSite(protocol.Hello{
		Site: cfg.Site, Cluster: cfg.Name, Cores: cfg.Cores, Proto: protocol.ProtoMulti,
		Trace: protocol.TraceContext{SpanID: uint64(cfg.Site) + 1},
	})
	if err != nil {
		return fmt.Errorf("cluster %s: register: %w", cfg.Name, err)
	}
	a.traceOn = !siteSpec.Trace.Zero()
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

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Nothing is in flight between batches, so the poll can park: the head
		// holds an empty answer until it has grants or a notice for this site,
		// for at most the waitPoll an idle agent would otherwise sleep.
		req := protocol.PollRequest{Site: cfg.Site, N: cfg.RequestBatch, ParkNS: int64(waitPoll)}
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
			if fault.IsFenced(err) {
				if err := a.reregister(); err != nil {
					return err
				}
				continue
			}
			return fmt.Errorf("cluster %s: poll: %w", cfg.Name, err)
		}
		worked := false
		for _, qj := range rep.Queries {
			q, err := a.ensure(qj.Query)
			if err != nil {
				if errors.Is(err, head.ErrQueryCanceled) || errors.Is(err, head.ErrUnknownQuery) {
					// Canceled between assignment and the spec fetch; its
					// grants need no commit — the pool left with the query.
					continue
				}
				return err
			}
			a.prestage(q, qj.Jobs)
			if err := a.process(ctx, q, qj.Jobs); err != nil {
				if fault.IsFenced(err) {
					if err := a.reregister(); err != nil {
						return err
					}
					break
				}
				return err
			}
			worked = true
		}
		for _, id := range rep.Done {
			if err := a.finalize(id); err != nil {
				return err
			}
			worked = true
		}
		for _, id := range rep.Dropped {
			a.discard(id)
			worked = true
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
		if rest := waitPoll - time.Since(polled); !worked && rest > 0 {
			// Idle, and the answer came back before the park ran out (a head
			// that does not hold polls, or a notice for a query already gone):
			// sit out the remainder so an empty answer can never make the loop
			// spin. New queries may be admitted at any time, so the agent never
			// exits on an empty grant.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(rest):
			}
		}
	}
}

// reregister re-opens the session after a fencing rejection. Local query
// state is discarded wholesale: the head reissued every fold not covered by
// a persisted checkpoint, and the checkpoint itself comes back through each
// query's re-fetched spec.
func (a *agentRun) reregister() error {
	a.discardAll()
	a.cfg.Logf("cluster %s: fenced; re-registering", a.cfg.Name)
	spec, err := a.cfg.Head.RegisterSite(protocol.Hello{
		Site: a.cfg.Site, Cluster: a.cfg.Name, Cores: a.cfg.Cores, Proto: protocol.ProtoMulti,
		Trace: protocol.TraceContext{SpanID: uint64(a.cfg.Site) + 1},
	})
	if err != nil {
		return fmt.Errorf("cluster %s: re-register: %w", a.cfg.Name, err)
	}
	a.traceOn = !spec.Trace.Zero()
	return nil
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
	if cfg.Cache != nil {
		raw = sources
		cached := make(map[int]chunk.Source, len(sources))
		for site, src := range sources {
			if site != cfg.Site {
				src = cfg.Cache.Wrap(site, src)
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
		sources: sources, raw: raw, collector: collector, fetched: make(map[string]int64),
		mFolded: cfg.Obs.Metrics().Counter("cluster_jobs_folded_total",
			"query", strconv.Itoa(id), "site", strconv.Itoa(cfg.Site)),
	}
	// The checkpoint is decoded before the engine exists: NewEngine starts
	// the worker goroutines, and a garbled checkpoint must not strand them.
	if len(spec.Checkpoint) > 0 {
		ck, err := fault.DecodeCheckpoint(spec.Checkpoint)
		if err != nil {
			return nil, fmt.Errorf("cluster %s: bad checkpoint in query %d spec: %w", cfg.Name, id, err)
		}
		if q.resumeObj, err = reducer.Decode(ck.Object); err != nil {
			return nil, fmt.Errorf("cluster %s: decoding query %d checkpoint: %w", cfg.Name, id, err)
		}
		q.ckptSeq = ck.Seq
		q.folded = append(q.folded, ck.Completed...)
		cfg.Logf("cluster %s: query %d resumes from checkpoint seq %d (%d jobs covered)",
			cfg.Name, id, ck.Seq, len(ck.Completed))
	}
	groupBytes := spec.GroupBytes
	if cfg.Tuning.GroupBytes > 0 {
		groupBytes = cfg.Tuning.GroupBytes
	}
	// RetrievalThreads is the in-flight depth on both sides of the hand-off:
	// that many lanes fetch, and the engine queue takes that many chunks, so a
	// burst of completions never blocks the lanes needlessly.
	q.engine, err = core.NewEngine(core.EngineConfig{
		Reducer:    reducer,
		Workers:    cfg.Cores,
		UnitSize:   spec.UnitSize,
		GroupBytes: groupBytes,
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
		a.cfg.Cache.Prestage(site, q.raw[site], refs)
	}
}

// process works one query's grant batch: retrieve, commit-before-fold, and
// feed the query's engine, with RetrievalThreads jobs in flight at once. It
// returns once the whole batch is folded (or discarded as duplicates), so a
// Done notice in a later poll can never race this batch's folds.
func (a *agentRun) process(ctx context.Context, q *agentQuery, js []jobs.Job) error {
	cfg := a.cfg
	lanes := cfg.RetrievalThreads
	if lanes > len(js) {
		lanes = len(js)
	}
	jobCh := make(chan jobs.Job)
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	for t := 0; t < lanes; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				if err := a.oneJob(q, j); err != nil {
					fail(err)
				}
			}
		}()
	}
	for _, j := range js {
		select {
		case <-ctx.Done():
			fail(ctx.Err())
		case jobCh <- j:
			continue
		}
		break
	}
	close(jobCh)
	wg.Wait()
	if firstErr == nil {
		for _, j := range js {
			q.fetched[a.bySite[j.Site].label] += j.Ref.Size
		}
	}
	return firstErr
}

// oneJob retrieves, commits and folds a single job for q, recording the
// job's retrieval and whole-job processing as spans (see addSpan).
func (a *agentRun) oneJob(q *agentQuery, j jobs.Job) error {
	cfg := a.cfg
	src, ok := q.sources[j.Site]
	if !ok {
		return fmt.Errorf("cluster %s: no source for site %d", cfg.Name, j.Site)
	}
	so := a.bySite[j.Site]
	a.gInflight.Add(1)
	start := a.clk.Now()
	data, err := retrieveWithRetry(cfg.Name, cfg.Retry, cfg.Logf, src, j, a.mRetries)
	elapsed := a.clk.Now() - start
	a.gInflight.Add(-1)
	if err != nil {
		return fmt.Errorf("cluster %s: retrieving %v: %w", cfg.Name, j.Ref, err)
	}
	q.collector.AddRetrieval(so.label, elapsed, int64(len(data)))
	so.hRetr.Observe(elapsed)
	if a.tracing(q) {
		a.addSpan(q, "retrieve", "retrieval", agentTIDRetr, j.ID, start, start+elapsed)
		defer func() { a.addSpan(q, "process", "job", agentTIDJobs, j.ID, start, a.clk.Now()) }()
	}
	// Commit BEFORE folding: exactly-once reduction per query (duplicate
	// completions — speculative copies, recovered re-executions, or commits
	// for a canceled query — must not be folded).
	dups, err := cfg.Head.CompleteJobs(protocol.JobsDone{
		Site: cfg.Site, Query: q.id, Jobs: []jobs.Job{j}, Trace: a.queryTrace(q),
	})
	if err != nil {
		bufpool.Put(data)
		return err
	}
	if len(dups) > 0 {
		bufpool.Put(data)
		a.mDups.Inc()
		return nil
	}
	q.ckptMu.RLock()
	err = q.engine.Submit(data)
	if err == nil {
		q.idsMu.Lock()
		q.folded = append(q.folded, j.ID)
		q.foldedN++
		n := q.foldedN
		q.idsMu.Unlock()
		q.ckptMu.RUnlock()
		if every := cfg.Tuning.CheckpointEveryJobs; every > 0 && n%int64(every) == 0 {
			if err := a.checkpoint(q); err != nil {
				cfg.Logf("cluster %s: query %d checkpoint failed: %v", cfg.Name, q.id, err)
			}
		}
	} else {
		q.ckptMu.RUnlock()
		bufpool.Put(data)
		return err
	}
	q.collector.CountJob(j.Site != cfg.Site)
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
	q.ckptMu.Lock()
	snap, err := q.engine.Snapshot()
	if err == nil && q.resumeObj != nil {
		err = q.reducer.GlobalReduce(snap, q.resumeObj)
	}
	var enc []byte
	if err == nil {
		enc, err = q.reducer.Encode(snap)
	}
	if err != nil {
		q.ckptMu.Unlock()
		return err
	}
	q.idsMu.Lock()
	ids := make([]int, len(q.folded))
	copy(ids, q.folded)
	q.idsMu.Unlock()
	sort.Ints(ids)
	q.ckptSeq++
	seq := q.ckptSeq
	q.ckptMu.Unlock()
	data := fault.Checkpoint{Site: cfg.Site, Seq: seq, Object: enc, Completed: ids}.Encode()
	if err := cfg.Head.Checkpoint(protocol.CheckpointSave{
		Site: cfg.Site, Seq: seq, Query: q.id, Data: data, Trace: a.queryTrace(q),
	}); err != nil {
		return err
	}
	a.mCkpts.Inc()
	cfg.Logf("cluster %s: query %d checkpoint %d shipped (%d jobs, %d bytes)",
		cfg.Name, q.id, seq, len(ids), len(data))
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
	if q.resumeObj != nil {
		if err := q.reducer.GlobalReduce(obj, q.resumeObj); err != nil {
			return fmt.Errorf("cluster %s: query %d merging recovered checkpoint: %w", cfg.Name, id, err)
		}
	}
	encoded, err := q.reducer.Encode(obj)
	if err != nil {
		return fmt.Errorf("cluster %s: query %d encoding reduction object: %w", cfg.Name, id, err)
	}
	end := a.clk.Now()
	q.collector.AddSync(end - start)
	if a.tracing(q) {
		a.addSpan(q, "local-merge", "sync", agentTIDJobs, -1, start, end)
	}
	b := q.collector.Breakdown()
	jacct := q.collector.Jobs()
	err = cfg.Head.SubmitResult(protocol.ReductionResult{
		Site:       cfg.Site,
		Query:      id,
		Trace:      a.queryTrace(q),
		Object:     encoded,
		Processing: int64(b.Processing),
		Retrieval:  int64(b.Retrieval),
		Sync:       int64(b.Sync),
		LocalJobs:  jacct.Local,
		StolenJobs: jacct.Stolen,
	})
	if err != nil {
		if errors.Is(err, head.ErrQueryCanceled) || errors.Is(err, head.ErrUnknownQuery) {
			return nil // canceled while we merged; nothing to keep
		}
		return fmt.Errorf("cluster %s: query %d submitting result: %w", cfg.Name, id, err)
	}
	cfg.Logf("cluster %s: query %d done: %v; jobs %d local + %d stolen; bytes %v",
		cfg.Name, id, b, jacct.Local, jacct.Stolen, q.fetched)
	return nil
}

// discard drops all local state for a canceled query.
func (a *agentRun) discard(id int) {
	q, ok := a.queries[id]
	if !ok {
		return
	}
	delete(a.queries, id)
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

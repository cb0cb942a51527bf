// Package cluster implements one cluster's runtime: a MASTER that keeps the
// cluster-local job pool fed by on-demand group requests to the head node,
// and SLAVE workers that retrieve assigned chunks (with multiple retrieval
// threads) and fold them through the Generalized Reduction engine. When the
// global pool is exhausted the cluster performs its local merge, ships its
// reduction object to the head, and waits (sync time) for the global
// reduction to finish.
//
// With fault tolerance enabled on the head, the runtime additionally renews
// its liveness lease with heartbeats, commits every job to the head BEFORE
// folding it (so the head can deduplicate speculative and recovered
// re-executions), ships periodic reduction-object checkpoints, and resumes
// from the checkpoint the head hands back after a crash-restart.
package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/chunk"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/stagecache"
	"repro/internal/stats"
)

// HeadClient is the master's view of the head node. Implementations:
// Remote (sockets, in this package) and head.Head itself via InProc.
type HeadClient interface {
	// Register announces the cluster and retrieves the job specification.
	Register(hello protocol.Hello) (protocol.JobSpec, error)
	// Poll asks for up to n jobs and returns the head's typed poll result:
	// grants grouped per query, completion notices, and the Wait hint. An
	// empty reply with Wait=false means the pool is exhausted for good;
	// Wait=true means recovery or speculation may yet produce work, so poll
	// again. Single-query masters see all grants under query 0.
	Poll(site, n int) (protocol.PollReply, error)
	// CompleteJobs commits finished jobs and returns the IDs the head
	// deduplicated; their contribution must not be folded.
	CompleteJobs(site int, js []jobs.Job) ([]int, error)
	// Heartbeat renews the site's liveness lease (fire-and-forget).
	Heartbeat(site int) error
	// Checkpoint persists a reduction-object checkpoint at the head.
	Checkpoint(cs protocol.CheckpointSave) error
	// SubmitResult delivers the cluster's reduction object and blocks until
	// the head finishes the global reduction, returning the final object.
	SubmitResult(res protocol.ReductionResult) ([]byte, error)
}

// waitPoll is how long the master sleeps before re-polling the head after an
// empty-but-not-final job grant (stragglers or failures may requeue work).
// The multi-query agent does not sleep it: it asks the head to hold its poll
// for this long instead (PollRequest.ParkNS).
const waitPoll = 20 * time.Millisecond

// Config parameterizes one cluster worker process.
type Config struct {
	// Site is the storage site co-located with this cluster; jobs whose
	// data lives elsewhere count as stolen.
	Site int
	// Name labels the cluster in logs and reports ("local", "cloud").
	Name string
	// Cores is the number of processing threads. Required.
	Cores int
	// RetrievalThreads is the number of concurrent chunk retrievals
	// (each slave uses multiple retrieval threads). Defaults to 2.
	RetrievalThreads int
	// Tuning carries the knobs shared with the head and the driver —
	// PrefetchDepth (retrieval pipeline depth; defaults to RetrievalThreads),
	// GroupBytes (overrides the spec's unit-group budget when > 0), and
	// CheckpointEveryJobs (snapshot the reduction engine and ship a
	// checkpoint to the head every that many folded jobs; 0 disables).
	// Defined once in config.Tuning so every layer agrees on defaults.
	Tuning config.Tuning
	// Sources maps each site id to the Source this cluster uses to read
	// data hosted there (its own storage node, the object store client, …).
	// Either Sources or SourceBuilder is required.
	Sources map[int]chunk.Source
	// SourceBuilder constructs the site sources once the dataset index is
	// known — how daemon deployments, which learn the index from the head's
	// job spec, wire up their object-store clients.
	SourceBuilder func(ix *chunk.Index) (map[int]chunk.Source, error)
	// SourceLabels names sources for byte accounting; optional.
	SourceLabels map[int]string
	// Cache, when non-nil, interposes the burst-side partition cache on
	// every remote-site source: reads go memory tier → replica → origin,
	// fresh origin reads spill asynchronously to the replica, and the
	// master pre-stages each granted remote chunk in grant order. Reads of
	// the cluster's own site bypass the cache; nil disables it entirely.
	Cache *stagecache.Cache
	// Head connects to the head node. Required.
	Head HeadClient
	// RequestBatch is the job-group size per head request; defaults to
	// max(Cores, 4).
	RequestBatch int
	// Retry controls fault tolerance for transient retrieval failures
	// (dropped object-store connections, storage-node hiccups).
	Retry Retry
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
	// Obs, when non-nil, collects cluster-side metrics (job counters,
	// per-source retrieval latency histograms, in-flight gauge) and — when
	// its tracer is enabled — per-job retrieval spans plus merge/sync spans.
	// Trace events use process id Site+1 with one thread lane per retrieval
	// thread, matching the simulator's pid/tid layout, so live and simulated
	// traces render identically in Perfetto.
	Obs *obs.Obs
}

// Retry is the retrieval fault-tolerance policy: each chunk fetch is
// attempted up to Attempts times, sleeping a capped exponential backoff with
// deterministic jitter between tries (base, 2×base, 4×base, … up to Cap,
// each halved plus a seeded-random half — "equal jitter").
//
// The zero value means 3 attempts, a 50 ms base backoff, a 2 s delay cap,
// and jitter seed 0; two clusters running the same Seed sleep the same
// sequence of delays, keeping fault drills reproducible.
//
// Permanent failures — a missing object, an out-of-range read, anything
// satisfying fault.PermanentError, or a chunk.ErrBounds — are not retried;
// transient failures (dropped connections, short reads, checksum mismatches
// from a garbled transfer) are.
type Retry struct {
	Attempts int
	Backoff  time.Duration
	Cap      time.Duration
	Seed     uint64
}

func (r Retry) attempts() int {
	if r.Attempts <= 0 {
		return 3
	}
	return r.Attempts
}

func (r Retry) backoff() time.Duration {
	if r.Backoff <= 0 {
		return 50 * time.Millisecond
	}
	return r.Backoff
}

// Report summarizes the cluster's run.
type Report struct {
	Site      int
	Name      string
	Cores     int
	Breakdown stats.Breakdown
	Jobs      stats.JobAccounting
	Bytes     map[string]int64 // bytes retrieved per source label
	Final     []byte           // encoded final (post-global-reduction) object
}

func (c *Config) applyDefaults() error {
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
	if c.Tuning.PrefetchDepth <= 0 {
		c.Tuning.PrefetchDepth = c.RetrievalThreads
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

// Run executes the cluster's share of one job: register, process jobs until
// the global pool is dry, then local-merge, submit, and wait for the final
// result. It blocks until the whole run (all clusters) completes.
func Run(cfg Config) (*Report, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	spec, err := cfg.Head.Register(protocol.Hello{Site: cfg.Site, Cluster: cfg.Name, Cores: cfg.Cores})
	if err != nil {
		return nil, fmt.Errorf("cluster %s: register: %w", cfg.Name, err)
	}
	ix, err := chunk.ReadIndex(bytes.NewReader(spec.Index))
	if err != nil {
		return nil, fmt.Errorf("cluster %s: bad index in job spec: %w", cfg.Name, err)
	}
	if len(cfg.Sources) == 0 {
		if cfg.Sources, err = cfg.SourceBuilder(ix); err != nil {
			return nil, fmt.Errorf("cluster %s: building sources: %w", cfg.Name, err)
		}
	}
	// rawSources keeps the unwrapped per-site sources for the pre-stager,
	// which must not loop through the cache it feeds. The cache wraps only
	// remote-site reads; checksum verification (below) stays outermost, so
	// replica-served bytes are verified exactly like origin bytes.
	rawSources := cfg.Sources
	if cfg.Cache != nil {
		cached := make(map[int]chunk.Source, len(cfg.Sources))
		for site, src := range cfg.Sources {
			if site != cfg.Site {
				src = cfg.Cache.Wrap(site, src)
			}
			cached[site] = src
		}
		cfg.Sources = cached
	}
	if ix.HasChecksums() {
		// The index carries per-chunk CRCs: verify every retrieval
		// transparently, whatever the source.
		verified := make(map[int]chunk.Source, len(cfg.Sources))
		for site, src := range cfg.Sources {
			verified[site] = chunk.VerifyingSource{Source: src, Index: ix}
		}
		cfg.Sources = verified
	}
	reducer, err := core.NewReducer(spec.App, spec.Params)
	if err != nil {
		return nil, fmt.Errorf("cluster %s: %w", cfg.Name, err)
	}
	groupBytes := spec.GroupBytes
	if cfg.Tuning.GroupBytes > 0 {
		groupBytes = cfg.Tuning.GroupBytes
	}
	batch := cfg.RequestBatch
	if spec.GroupSize > 0 {
		batch = spec.GroupSize
	}

	clk := cfg.Obs.ClockOrWall()
	tr := cfg.Obs.Trace()
	reg := cfg.Obs.Metrics()
	pid := cfg.Site + 1
	tr.NameProcess(pid, fmt.Sprintf("cluster-%s", cfg.Name))
	tr.NameThread(pid, 0, "master")
	// The prefetch pipeline: PrefetchDepth retrieval lanes keep that many
	// chunks in flight ahead of the fold (the engine queue is sized to
	// match, so a burst of completions never blocks the lanes needlessly).
	lanes := cfg.Tuning.PrefetchDepth
	for t := 0; t < lanes; t++ {
		tr.NameThread(pid, 1+t, fmt.Sprintf("retr-%d", t+1))
	}
	mLocal := reg.Counter("cluster_jobs_local_total")
	mStolen := reg.Counter("cluster_jobs_stolen_total")
	mRetries := reg.Counter("cluster_retrieval_retries_total")
	mDups := reg.Counter("cluster_dup_jobs_total")
	mCkpts := reg.Counter("cluster_checkpoints_total")
	gInflight := reg.Gauge("cluster_retrievals_inflight")
	reg.Gauge("cluster_prefetch_depth").Set(int64(lanes))
	bufpool.Register(reg)

	collector := &stats.Collector{}
	engine, err := core.NewEngine(core.EngineConfig{
		Reducer:    reducer,
		Workers:    cfg.Cores,
		UnitSize:   spec.UnitSize,
		GroupBytes: groupBytes,
		QueueDepth: lanes,
		Collector:  collector,
		// Chunk buffers come from bufpool (sources and the objstore client
		// read into pooled buffers); the engine is the last owner and
		// returns each one after its units are folded.
		Release: bufpool.Put,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster %s: %w", cfg.Name, err)
	}

	// Checkpoint/recovery state. resumeObj is the reduction object recovered
	// from the head after a crash-restart; it is NEVER mutated — each
	// checkpoint and the final merge fold it into a fresh engine snapshot,
	// because engine.Snapshot is cumulative.
	var (
		resumeObj core.Object
		ckptMu    sync.RWMutex // folds hold RLock; a checkpoint holds Lock
		idsMu     sync.Mutex
		folded    []int // job IDs committed AND folded, cumulative
		ckptSeq   int
		foldedN   atomic.Int64 // jobs folded this incarnation (ckpt trigger)
	)
	if len(spec.Checkpoint) > 0 {
		ck, err := fault.DecodeCheckpoint(spec.Checkpoint)
		if err != nil {
			return nil, fmt.Errorf("cluster %s: bad checkpoint in job spec: %w", cfg.Name, err)
		}
		if resumeObj, err = reducer.Decode(ck.Object); err != nil {
			return nil, fmt.Errorf("cluster %s: decoding checkpoint object: %w", cfg.Name, err)
		}
		ckptSeq = ck.Seq
		folded = append(folded, ck.Completed...)
		cfg.Logf("cluster %s: resuming from checkpoint seq %d (%d jobs covered)",
			cfg.Name, ck.Seq, len(ck.Completed))
	}

	// checkpoint quiesces the engine, merges the snapshot with the resumed
	// object, and ships the result (plus the covered job IDs) to the head.
	checkpoint := func() error {
		ckptMu.Lock()
		snap, err := engine.Snapshot()
		if err == nil && resumeObj != nil {
			err = reducer.GlobalReduce(snap, resumeObj)
		}
		var enc []byte
		if err == nil {
			enc, err = reducer.Encode(snap)
		}
		if err != nil {
			ckptMu.Unlock()
			return err
		}
		idsMu.Lock()
		ids := make([]int, len(folded))
		copy(ids, folded)
		idsMu.Unlock()
		sort.Ints(ids)
		ckptSeq++
		seq := ckptSeq
		ckptMu.Unlock()
		data := fault.Checkpoint{Site: cfg.Site, Seq: seq, Object: enc, Completed: ids}.Encode()
		if err := cfg.Head.Checkpoint(protocol.CheckpointSave{Site: cfg.Site, Seq: seq, Data: data}); err != nil {
			return err
		}
		mCkpts.Inc()
		if tr.Enabled() {
			tr.Instant(pid, 0, "fault", fmt.Sprintf("checkpoint %d", seq),
				obs.Args{"seq": seq, "jobs": len(ids), "bytes": len(data)})
		}
		cfg.Logf("cluster %s: checkpoint %d shipped (%d jobs, %d bytes)", cfg.Name, seq, len(ids), len(data))
		return nil
	}

	// Heartbeats renew the cluster's liveness lease at the head. They stop
	// before SubmitResult: the head releases the lease when the result
	// arrives, and the remote connection is busy with the blocking wait.
	stopHB := make(chan struct{})
	var hbWG sync.WaitGroup
	if hb := time.Duration(spec.HeartbeatEvery); hb > 0 {
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
	stopHeartbeats := func() {
		select {
		case <-stopHB:
		default:
			close(stopHB)
		}
		hbWG.Wait()
	}
	defer stopHeartbeats()

	// Master: feed the cluster-local pool with on-demand group requests.
	// The buffered channel is the local job pool; requesting the next group
	// only when there is room implements "whenever a cluster's job pool is
	// diminishing, its master interacts with the head to request more".
	// stopFeed aborts the loop when a slave hits an unrecoverable error, so
	// an empty-but-undrained pool (wait=true) cannot spin forever.
	jobCh := make(chan jobs.Job, batch)
	feedErr := make(chan error, 1)
	stopFeed := make(chan struct{})
	var stopOnce sync.Once
	abortFeed := func() { stopOnce.Do(func() { close(stopFeed) }) }
	go func() {
		defer close(jobCh)
		for {
			select {
			case <-stopFeed:
				feedErr <- nil
				return
			default:
			}
			rep, err := cfg.Head.Poll(cfg.Site, batch)
			if err != nil {
				feedErr <- fmt.Errorf("cluster %s: job request: %w", cfg.Name, err)
				return
			}
			var granted []jobs.Job
			for _, qj := range rep.Queries {
				granted = append(granted, qj.Jobs...)
			}
			if cfg.Cache != nil {
				// Push each granted remote chunk toward the replica in grant
				// order; the stager skips anything a read-through already
				// cached, so the overlap with the slaves is cheap.
				var bySite map[int][]chunk.Ref
				for _, j := range granted {
					if j.Site == cfg.Site {
						continue
					}
					if bySite == nil {
						bySite = make(map[int][]chunk.Ref)
					}
					bySite[j.Site] = append(bySite[j.Site], j.Ref)
				}
				for site, refs := range bySite {
					cfg.Cache.Prestage(site, rawSources[site], refs)
				}
			}
			if len(granted) == 0 {
				if !rep.Wait {
					feedErr <- nil
					return
				}
				select {
				case <-stopFeed:
					feedErr <- nil
					return
				case <-time.After(waitPoll):
				}
				continue
			}
			for _, j := range granted {
				select {
				case jobCh <- j:
				case <-stopFeed:
					feedErr <- nil
					return
				}
			}
		}
	}()

	// Slaves: retrieval threads pull jobs, fetch chunk payloads, commit them
	// to the head (which deduplicates re-executions), and push non-duplicates
	// into the reduction engine (which applies back-pressure).
	var (
		wg       sync.WaitGroup
		slaveMu  sync.Mutex
		slaveErr error
	)
	fail := func(err error) {
		slaveMu.Lock()
		if slaveErr == nil {
			slaveErr = err
		}
		slaveMu.Unlock()
		abortFeed()
	}
	for t := 0; t < lanes; t++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for j := range jobCh {
				src, ok := cfg.Sources[j.Site]
				if !ok {
					fail(fmt.Errorf("cluster %s: no source for site %d", cfg.Name, j.Site))
					continue
				}
				label := cfg.sourceLabel(j.Site)
				gInflight.Add(1)
				start := clk.Now()
				data, err := retrieveWithRetry(&cfg, src, j, mRetries)
				elapsed := clk.Now() - start
				gInflight.Add(-1)
				if err != nil {
					fail(fmt.Errorf("cluster %s: retrieving %v: %w", cfg.Name, j.Ref, err))
					continue
				}
				collector.AddRetrieval(label, elapsed, int64(len(data)))
				reg.Histogram("cluster_retrieval_seconds_"+label, nil).Observe(elapsed)
				if tr.Enabled() {
					tr.Complete(pid, lane, "retrieval", fmt.Sprintf("job %d", j.ID), start, start+elapsed,
						obs.Args{"file": j.Ref.File, "seq": j.Ref.Seq, "site": j.Site,
							"bytes": len(data), "stolen": j.Site != cfg.Site})
				}
				// Commit BEFORE folding: if the head says the job is a
				// duplicate (a speculative copy or a recovered re-execution
				// already supplied it), its payload must not be folded —
				// exactly-once reduction is enforced here.
				dups, err := cfg.Head.CompleteJobs(cfg.Site, []jobs.Job{j})
				if err != nil {
					bufpool.Put(data)
					fail(err)
					continue
				}
				if len(dups) > 0 {
					bufpool.Put(data)
					mDups.Inc()
					continue
				}
				ckptMu.RLock()
				err = engine.Submit(data)
				if err == nil {
					idsMu.Lock()
					folded = append(folded, j.ID)
					idsMu.Unlock()
				}
				ckptMu.RUnlock()
				if err != nil {
					// Not queued: the engine never saw the buffer, so the
					// lane is still its owner.
					bufpool.Put(data)
					fail(err)
					continue
				}
				collector.CountJob(j.Site != cfg.Site)
				if j.Site != cfg.Site {
					mStolen.Inc()
				} else {
					mLocal.Inc()
				}
				if every := cfg.Tuning.CheckpointEveryJobs; every > 0 {
					if n := foldedN.Add(1); n%int64(every) == 0 {
						if err := checkpoint(); err != nil {
							// Checkpointing is best-effort: a failed write
							// just means more recomputation after a crash.
							cfg.Logf("cluster %s: checkpoint failed: %v", cfg.Name, err)
						}
					}
				}
			}
		}(1 + t)
	}
	wg.Wait()
	if err := <-feedErr; err != nil {
		_, _ = engine.Finish()
		return nil, err
	}
	slaveMu.Lock()
	err = slaveErr
	slaveMu.Unlock()
	if err != nil {
		_, _ = engine.Finish()
		return nil, err
	}

	// Local (intra-cluster) merge of the per-core reduction objects, folding
	// in the resumed checkpoint object if this incarnation restarted.
	mergeSpan := tr.Begin(pid, 0, "sync", "local-merge")
	mergeTimer := stats.StartTimerOn(clk, collector.AddSync)
	obj, err := engine.Finish()
	if err != nil {
		return nil, fmt.Errorf("cluster %s: local reduction: %w", cfg.Name, err)
	}
	if resumeObj != nil {
		if err := reducer.GlobalReduce(obj, resumeObj); err != nil {
			return nil, fmt.Errorf("cluster %s: merging recovered checkpoint: %w", cfg.Name, err)
		}
	}
	encoded, err := reducer.Encode(obj)
	if err != nil {
		return nil, fmt.Errorf("cluster %s: encoding reduction object: %w", cfg.Name, err)
	}
	mergeTimer.Stop()
	mergeSpan.End(obs.Args{"bytes": len(encoded)})

	// Global reduction: ship the object, then idle until everyone is done.
	// This blocked interval is the cluster's sync time. The head releases
	// the cluster's lease on receipt, so heartbeats stop here.
	stopHeartbeats()
	b := collector.Breakdown()
	jacct := collector.Jobs()
	waitSpan := tr.Begin(pid, 0, "sync", "global-reduction-wait")
	syncTimer := stats.StartTimerOn(clk, collector.AddSync)
	final, err := cfg.Head.SubmitResult(protocol.ReductionResult{
		Site:       cfg.Site,
		Object:     encoded,
		Processing: int64(b.Processing),
		Retrieval:  int64(b.Retrieval),
		Sync:       int64(b.Sync),
		LocalJobs:  jacct.Local,
		StolenJobs: jacct.Stolen,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster %s: submitting result: %w", cfg.Name, err)
	}
	syncTimer.Stop()
	waitSpan.End(nil)
	cfg.Logf("cluster %s: done (%v)", cfg.Name, collector.Breakdown())

	return &Report{
		Site:      cfg.Site,
		Name:      cfg.Name,
		Cores:     cfg.Cores,
		Breakdown: collector.Breakdown(),
		Jobs:      jacct,
		Bytes:     collector.BytesRetrieved(),
		Final:     final,
	}, nil
}

// retrieveWithRetry fetches one chunk under the cluster's retry policy:
// capped exponential backoff with deterministic jitter between attempts,
// bailing out immediately on permanently-failing requests.
func retrieveWithRetry(cfg *Config, src chunk.Source, j jobs.Job, retries *obs.Counter) ([]byte, error) {
	bo := fault.Backoff{Base: cfg.Retry.backoff(), Cap: cfg.Retry.Cap, Seed: cfg.Retry.Seed}
	attempts := cfg.Retry.attempts()
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			retries.Inc()
			time.Sleep(bo.Delay(attempt - 1))
			cfg.Logf("cluster %s: retrying %v (attempt %d): %v", cfg.Name, j.Ref, attempt, lastErr)
		}
		data, err := src.ReadChunk(j.Ref)
		if err == nil {
			return data, nil
		}
		lastErr = err
		if fault.IsPermanent(err) || errors.Is(err, chunk.ErrBounds) {
			return nil, fmt.Errorf("permanent failure (no retry): %w", err)
		}
	}
	return nil, fmt.Errorf("after %d attempts: %w", attempts, lastErr)
}

func (c *Config) sourceLabel(site int) string {
	if l, ok := c.SourceLabels[site]; ok {
		return l
	}
	if site == c.Site {
		return "local"
	}
	return fmt.Sprintf("site%d", site)
}

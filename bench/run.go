package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/protocol"
	"repro/internal/stagecache"
)

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64 // length of the timed section
	trace    bool    // traced run: per-layer metrics instead of end-to-end
	traceOut string  // write the kept spans here as Chrome/Perfetto JSON
	tiny     bool
	verbose  bool // print every rep's makespan to standard error
}

// Run shape. Every workload is a closed loop with one client: set up
// (several times, to report a median set-up time: at least minSetups, then
// more while they have taken less than setupBudget in total), warm up, then
// timed reps back to back until the timed section is over.
const (
	minSetups    = 3
	maxSetups    = 9
	setupBudget  = 2 * time.Second
	warmups      = 3
	warmupBudget = 2 * time.Second // no further warm-up rep starts after this
	minTimedReps = 3
	keptReps     = 2 // traced reps whose spans are kept
	queryTimeout = 2 * time.Minute
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports; the JSON form is the benchmark contract's
// last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	reps     int
	errors   []string
	selfTime map[string]time.Duration // per span name, over the kept reps (traced runs)
}

// batchObs is what one batch of concurrently admitted queries produced.
type batchObs struct {
	makespan time.Duration
	jobs     int64
	reports  []head.ClusterReport

	// Traced batches only.
	admit, pickup, syncTail, explained time.Duration
	imbalance, fairErr                 float64
	// Stagecache workloads only.
	hits, misses int64
}

// repObs is one rep: Passes batches back to back.
type repObs struct {
	makespan time.Duration
	cpu      time.Duration // user+sys of the process during the rep
	traced   bool
	batches  []batchObs
}

// check is a final object waiting to be compared with its reference.
type check struct {
	app     *appRun
	version int
	reducer core.Reducer
	obj     core.Object
	where   string
}

type runner struct {
	w  *workloadDef
	o  options
	sz sizing
	p  *probes
	d  *deployment

	apps    []*appRun // one per w.Queries entry; equal apps share one appRun
	checks  []check
	last    map[*appRun]check // iterative apps: the latest rep, checked at the end
	queries int64
	repN    int
	kept    int
}

// usage is a snapshot of the process-wide counters the end-to-end metrics
// are deltas of.
type usage struct {
	wall                time.Time
	mallocs, totalAlloc uint64
	bpGets, bpAllocs    int64
	headBytes, wanBytes int64
}

func (r *runner) usage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gets, allocs, _, _ := bufpool.Stats()
	return usage{
		wall:       time.Now(),
		mallocs:    ms.Mallocs,
		totalAlloc: ms.TotalAlloc,
		bpGets:     gets,
		bpAllocs:   allocs,
		headBytes:  r.d.headRead.Load() + r.d.headWritten.Load(),
		wanBytes:   r.d.wanBytes.Load(),
	}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// cpuTime is the user+sys time the process has used so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// buildApps creates the application drivers for the deployed dataset.
func (r *runner) buildApps() error {
	shared := make(map[string]*appRun)
	for _, q := range r.w.Queries {
		a := shared[q.App]
		if a == nil {
			var err error
			switch q.App {
			case appKNN:
				a, err = newKNN(r.o.seed, pointDim, 10)
			case appHistogram:
				a, err = newHistogram(pointDim, 64, r.d.ix.TotalUnits())
			case appKMeans:
				a, err = newKMeans(r.d.ix, r.d.mem, 32, pointDim)
			case appPageRank:
				a, err = newPageRank(r.d.graph, 0.85)
			default:
				err = fmt.Errorf("unknown app %q", q.App)
			}
			if err != nil {
				return err
			}
			shared[q.App] = a
		}
		r.apps = append(r.apps, a)
	}
	return nil
}

// admit builds one query the way driver.Session.Submit does and admits it.
func (r *runner) admit(a *appRun, weight int) (*head.Query, time.Duration, error) {
	pool, err := jobs.NewPool(r.d.ix, r.d.placement, jobs.Options{})
	if err != nil {
		return nil, 0, err
	}
	spec := protocol.JobSpec{App: a.app, Params: a.params, UnitSize: r.d.ix.UnitSize}
	var reducer core.Reducer = a.reducer
	if r.o.trace {
		spec.App = timedPrefix + a.app
		reducer = &timedReducer{GroupReducer: a.reducer, p: r.p, head: true}
	}
	if err := head.EncodeIndexSpec(&spec, r.d.ix); err != nil {
		return nil, 0, err
	}
	start := r.p.tr.now()
	q, err := r.d.h.Admit(head.QueryConfig{
		Pool: pool, Reducer: reducer, Spec: spec, Weight: weight, ExpectAll: true,
	})
	return q, r.p.tr.now() - start, err
}

// batch admits every query of the workload at once and waits for all of
// them. Final objects are checked against the app's invariant here and
// queued for the reference comparison; iterative apps then advance.
func (r *runner) batch(traced bool) (batchObs, error) {
	p, tr := r.p, r.p.tr
	var b batchObs
	jobsPerQuery := int64(0)
	if len(r.w.Queries) > 1 {
		jobsPerQuery = int64(r.d.ix.NumChunks())
	}
	var before stagecache.Stats
	if r.d.cache != nil {
		before = r.d.cache.stats()
	}
	p.beginRep(jobsPerQuery)
	t0 := tr.now()
	repSpan := tr.add(span{Name: "rep", Start: t0, Parent: -1, Query: -1, Job: -1, Site: -1})
	var agentSpans []int
	if repSpan >= 0 {
		p.mu.Lock()
		p.repSpanIdx = repSpan
		for _, c := range r.w.Clusters {
			i := tr.add(span{Name: "agent", Start: t0, Parent: repSpan, Query: -1, Job: -1, Site: c.Site})
			p.agentSpan[c.Site] = i
			agentSpans = append(agentSpans, i)
		}
		p.mu.Unlock()
	}

	type handle struct {
		q    *head.Query
		a    *appRun
		span int
	}
	var hs []handle
	for i, qd := range r.w.Queries {
		qs := tr.now()
		q, admit, err := r.admit(r.apps[i], qd.Weight)
		r.queries++
		if err != nil {
			return b, fmt.Errorf("admit %s: %w", qd.App, err)
		}
		b.admit += admit
		qspan := tr.add(span{Name: "query", Start: qs, Parent: repSpan, Query: q.ID(), Job: -1, Site: -1})
		if qspan >= 0 {
			tr.add(span{Name: "admit", Start: qs, End: qs + admit, Parent: qspan, Query: q.ID(), Job: -1, Site: -1})
		}
		hs = append(hs, handle{q, r.apps[i], qspan})
	}
	ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
	defer cancel()
	objs := make([]core.Object, len(hs))
	for i, h := range hs {
		obj, reports, _, err := h.q.Wait(ctx)
		if err != nil {
			return b, fmt.Errorf("query %d (%s): %w", h.q.ID(), h.a.app, err)
		}
		tr.end(h.span, tr.now())
		objs[i] = obj
		b.reports = append(b.reports, reports...)
	}
	t1 := tr.now()
	b.makespan = t1 - t0
	tr.end(repSpan, t1)
	for _, i := range agentSpans {
		tr.end(i, t1)
	}
	for _, rep := range b.reports {
		b.jobs += int64(rep.Jobs.Total())
	}
	if r.d.cache != nil {
		after := r.d.cache.stats()
		b.hits, b.misses = after.Hits-before.Hits, after.Misses-before.Misses
	}
	if traced {
		r.attribute(&b, t0, t1, hs[0].span)
	}

	for i, h := range hs {
		if err := h.a.invariant(objs[i]); err != nil {
			return b, err
		}
		c := check{app: h.a, version: h.a.version, reducer: h.a.reducer, obj: objs[i],
			where: fmt.Sprintf("rep %d query %d", r.repN, h.q.ID())}
		if h.a.next == nil || r.sz.tiny || r.repN == 0 {
			r.checks = append(r.checks, c)
		} else {
			r.last[h.a] = c
		}
	}
	advanced := make(map[*appRun]bool)
	for i, h := range hs {
		if h.a.next != nil && !advanced[h.a] {
			advanced[h.a] = true
			if err := h.a.next(objs[i]); err != nil {
				return b, err
			}
		}
	}
	return b, nil
}

// attribute fills in what a traced batch says about where its time went:
// the slowest site's retrieval or fold lane (they overlap, so the larger
// one) plus the tail from the last commit to the result.
func (r *runner) attribute(b *batchObs, t0, t1 time.Duration, querySpan int) {
	p := r.p
	p.mu.Lock()
	first := p.firstGrant
	var lastMax, lastMin time.Duration
	for _, t := range p.lastCommit {
		if t > lastMax {
			lastMax = t
		}
		if lastMin == 0 || t < lastMin {
			lastMin = t
		}
	}
	var granted int64
	for _, n := range p.fairGrants {
		granted += n
	}
	weights := 0
	for _, q := range r.w.Queries {
		weights += q.Weight
	}
	// Query ids are assigned in admission order, so the batch's i-th query
	// has the i-th smallest id seen in the window.
	if granted > 0 && len(p.fairGrants) == len(r.w.Queries) {
		ids := make([]int, 0, len(p.fairGrants))
		for id := range p.fairGrants {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for i, id := range ids {
			share := float64(p.fairGrants[id]) / float64(granted)
			want := float64(r.w.Queries[i].Weight) / float64(weights)
			if d := math.Abs(share - want); d > b.fairErr {
				b.fairErr = d
			}
		}
	}
	p.mu.Unlock()

	if first > 0 {
		b.pickup = first - t0
	}
	if lastMax > 0 {
		b.syncTail = t1 - lastMax
		b.imbalance = ratio((lastMax - lastMin).Seconds(), b.makespan.Seconds())
		p.tr.add(span{Name: "sync_tail", Start: lastMax, End: t1, Parent: querySpan, Query: -1, Job: -1, Site: -1})
	}
	for _, busy := range r.siteBusy(b.reports) {
		if busy > b.explained {
			b.explained = busy
		}
	}
	b.explained += b.syncTail
}

// siteBusy returns, per site, how long a batch kept the site's lanes busy:
// retrieval and fold overlap, so the larger of retrieval time ÷ retrieval
// threads and processing time ÷ cores.
func (r *runner) siteBusy(reports []head.ClusterReport) map[int]time.Duration {
	type lanes struct{ retr, proc time.Duration }
	bySite := make(map[int]lanes)
	for _, cr := range reports {
		l := bySite[cr.Site]
		l.retr += cr.Breakdown.Retrieval
		l.proc += cr.Breakdown.Processing
		bySite[cr.Site] = l
	}
	busy := make(map[int]time.Duration)
	for _, c := range r.w.Clusters {
		l := bySite[c.Site]
		busy[c.Site] = max(l.retr/retrievalThreads, l.proc/time.Duration(c.Cores))
	}
	return busy
}

// rep runs one rep: a fresh cache where the workload has one, then Passes
// batches back to back.
func (r *runner) rep(traced bool) (repObs, error) {
	tr := r.p.tr
	keep := traced && r.kept < keptReps
	if keep {
		r.kept++
	}
	tr.rep.Store(int32(r.repN))
	tr.on.Store(traced)
	tr.keep.Store(keep)
	defer func() {
		tr.on.Store(false)
		tr.keep.Store(false)
		r.repN++
	}()
	obs := repObs{traced: traced}
	start, cpu := time.Now(), cpuTime()
	if r.d.cache != nil {
		r.d.cache.fresh()
	}
	for i := 0; i < max(r.w.Passes, 1); i++ {
		b, err := r.batch(traced)
		if err != nil {
			return obs, err
		}
		obs.batches = append(obs.batches, b)
		obs.makespan = time.Since(start)
	}
	obs.cpu = cpuTime() - cpu
	return obs, nil
}

// verify compares every queued final object with a single-worker core.Run
// over the in-memory dataset; objects of one app and parameter version share
// one reference.
func (r *runner) verify() []string {
	for _, c := range r.last {
		r.checks = append(r.checks, c)
	}
	type key struct {
		app     *appRun
		version int
	}
	refs := make(map[key]core.Object)
	var bad []string
	for _, c := range r.checks {
		k := key{c.app, c.version}
		ref, ok := refs[k]
		if !ok {
			var err error
			if ref, err = reference(c.reducer, r.d.ix, r.d.mem); err != nil {
				bad = append(bad, fmt.Sprintf("%s: reference: %v", c.where, err))
				continue
			}
			refs[k] = ref
		}
		if err := sameObject(c.reducer, c.obj, ref); err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", c.where, err))
		}
	}
	return bad
}

// runWorkload is one whole run of one workload in this process.
func runWorkload(w *workloadDef, o options) (*result, error) {
	goroutines := runtime.NumGoroutine()
	r := &runner{w: w, o: o, sz: sizing{tiny: o.tiny}, p: newProbes(newTracer()), last: make(map[*appRun]check)}
	activeProbes.Store(r.p)

	least, most, nWarm, minReps := minSetups, maxSetups, warmups, minTimedReps
	if o.tiny {
		least, most, nWarm, minReps = 1, 1, 1, 2
	}
	var setupS []float64
	for i := 0; i < most && (i < least || sum(setupS) < setupBudget.Seconds()); i++ {
		if r.d != nil {
			if err := r.d.teardown(); err != nil {
				return nil, err
			}
			r.d = nil
			// The previous dataset is garbage; do not let it pace this set-up or
			// sit under it in the peak RSS. Twice: one run in ten the first
			// cycle still found it reachable and the second freed it.
			runtime.GC()
			runtime.GC()
		}
		start := time.Now()
		d, err := setup(w, r.sz, o.seed, r.p)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		r.d = d
		if o.verbose {
			fmt.Fprintf(os.Stderr, "set-up %d: %.3fs, peak RSS %.0f MB\n", i+1, setupS[i], peakRSSMB())
		}
	}
	res, err := r.measure(nWarm, minReps)
	if terr := r.d.teardown(); err == nil {
		err = terr
	}
	if err != nil {
		return nil, err
	}
	leaked := leakedGoroutines(goroutines)
	gets, _, puts, _ := bufpool.Stats()
	r.finish(res, setupS, leaked, gets-puts)
	if !o.trace {
		return res, nil
	}
	micro, err := microbench(o.seed, o.tiny)
	if err != nil {
		return nil, fmt.Errorf("microbenchmarks: %w", err)
	}
	for name, v := range micro {
		r.set(res, name, v)
	}
	tr := r.p.tr
	res.selfTime = selfTimes(tr.spans)
	if o.traceOut != "" {
		if err := writeChromeTrace(o.traceOut, tr.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// measure warms up, runs the timed section and verifies the results.
func (r *runner) measure(nWarm, minReps int) (*result, error) {
	if err := r.buildApps(); err != nil {
		return nil, err
	}
	// Warm-up fills the buffer pool and lets lazy set-up finish; workloads
	// whose reps take seconds have done that after one or two.
	for i, start := 0, time.Now(); i < nWarm && (i == 0 || time.Since(start) < warmupBudget); i++ {
		if _, err := r.rep(false); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	runtime.GC() // start every timed section from a collected heap
	before := r.usage()
	limit := time.Duration(r.o.seconds * float64(time.Second))
	var reps []repObs
	for len(reps) < minReps || time.Since(before.wall) < limit {
		// A traced run alternates traced and untraced reps, so the two
		// makespans it compares saw the same machine.
		obs, err := r.rep(r.o.trace && len(reps)%2 == 0)
		if err != nil {
			return nil, err
		}
		reps = append(reps, obs)
		if r.o.verbose {
			fmt.Fprintf(os.Stderr, "rep %d traced=%v makespan %.4fs\n", len(reps), obs.traced, obs.makespan.Seconds())
		}
	}
	after := r.usage()
	res := &result{Metrics: make(map[string]metric), reps: len(reps)}
	res.errors = r.verify()
	r.summarise(res, reps, before, after)
	return res, nil
}

// leakedGoroutines waits briefly for the goroutines teardown released to
// exit and returns how many more than baseline remain.
func leakedGoroutines(baseline int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine() - baseline; n > 0 {
		return n
	}
	return 0
}

// summarise turns the timed section into named metrics.
func (r *runner) summarise(res *result, reps []repObs, before, after usage) {
	p := r.p
	wall := after.wall.Sub(before.wall).Seconds()
	var makespans, cpuPerGB, traced, untraced []float64
	var jobsN int64
	repGB := float64(max(r.w.Passes, 1)) * float64(len(r.w.Queries)) * float64(r.d.ix.TotalBytes()) / 1e9
	for _, rep := range reps {
		makespans = append(makespans, rep.makespan.Seconds())
		cpuPerGB = append(cpuPerGB, rep.cpu.Seconds()/repGB)
		if rep.traced {
			traced = append(traced, rep.makespan.Seconds())
		} else {
			untraced = append(untraced, rep.makespan.Seconds())
		}
		for _, b := range rep.batches {
			jobsN += b.jobs
		}
	}
	folded := repGB * 1e9 * float64(len(reps))
	set := func(name string, v float64) { r.set(res, name, v) }

	// End to end.
	set("makespan_p50_s", median(makespans))
	set("throughput_mb_s", folded/1e6/wall)
	set("jobs_per_s", float64(jobsN)/wall)
	set("cpu_s_per_gb", median(cpuPerGB))
	set("allocs_per_job", float64(after.mallocs-before.mallocs)/float64(jobsN))

	reads := p.objRead.attempts.Load() + p.memRead.attempts.Load() + p.cacheRead.attempts.Load()
	readFails := p.objRead.failures.Load() + p.memRead.failures.Load() + p.cacheRead.failures.Load()
	res.Attempted = r.queries + reads + p.commit.attempts.Load() + p.submit.attempts.Load()
	// A failed query, commit or submission ends the run with an error instead
	// of a result, so what can be counted here is what the middleware
	// absorbed: reads it had to retry and commits the head deduplicated.
	res.Failed = readFails + p.dupCommits.Load() + int64(len(res.errors))
	res.Correct = res.Failed == 0

	if !r.o.trace {
		return
	}

	// Per layer. Wrapper accumulators cover the traced reps only; counters
	// that are always on are normalised over the whole timed section.
	var tracedSpan float64
	for _, v := range traced {
		tracedSpan += v
	}
	layerStats := func(l *layer) (n float64, busy float64, mb float64, ms []float64) {
		cnt, b, bytes, samples := l.snapshot()
		return float64(cnt), b.Seconds(), float64(bytes) / 1e6, durationsToMS(samples)
	}
	n, busy, mb, ms := layerStats(&p.objRead)
	set("objstore.read_busy_s", busy)
	set("objstore.read_mb_s", ratio(mb, busy))
	set("objstore.reads", n)
	set("objstore.read_p50_ms", percentile(ms, 0.5))
	set("objstore.read_p99_ms", percentile(ms, 0.99))
	set("objstore.read_errors", float64(p.objRead.failures.Load()))

	var retr, proc, sync time.Duration
	var local, stolen int64
	var tracedBatches []batchObs
	for _, rep := range reps {
		for _, b := range rep.batches {
			if rep.traced {
				tracedBatches = append(tracedBatches, b)
				for _, cr := range b.reports {
					retr += cr.Breakdown.Retrieval
				}
			}
			for _, cr := range b.reports {
				proc += cr.Breakdown.Processing
				sync += cr.Breakdown.Sync
				local += int64(cr.Jobs.Local)
				stolen += int64(cr.Jobs.Stolen)
			}
		}
	}
	// The agent's reported retrieval time covers its VerifyingSource; the
	// benchmark's outermost source wrapper sits just inside it.
	_, memBusy, memMB, _ := layerStats(&p.memRead)
	_, cacheBusy, cacheMB, _ := layerStats(&p.cacheRead)
	outerBusy, outerMB := busy+memBusy, mb+memMB
	if r.d.cache != nil {
		outerBusy, outerMB = cacheBusy, cacheMB
		set("stagecache.read_self_s", cacheBusy-busy)
	} else {
		set("stagecache.read_self_s", 0)
	}
	verify := retr.Seconds() - outerBusy
	set("chunk.verify_self_s", verify)
	set("chunk.verify_mb_s", ratio(outerMB, verify))

	set("protocol.control_bytes_per_job", ratio(float64(after.headBytes-before.headBytes), float64(jobsN)))

	var hits, misses, coldHits, coldMisses, warmHits, warmMisses float64
	var cold, warm []float64
	for _, rep := range reps {
		for i, b := range rep.batches {
			hits += float64(b.hits)
			misses += float64(b.misses)
			if r.d.cache == nil {
				continue
			}
			if i == 0 {
				coldHits += float64(b.hits)
				coldMisses += float64(b.misses)
				cold = append(cold, b.makespan.Seconds())
			} else {
				warmHits += float64(b.hits)
				warmMisses += float64(b.misses)
				warm = append(warm, b.makespan.Seconds())
			}
		}
	}
	set("stagecache.hits", hits)
	set("stagecache.misses", misses)
	set("stagecache.hit_ratio", ratio(hits, hits+misses))
	set("stagecache.cold_hit_ratio", ratio(coldHits, coldHits+coldMisses))
	set("stagecache.warm_hit_ratio", ratio(warmHits, warmHits+warmMisses))
	set("stagecache.cold_pass_s", median(cold))
	set("stagecache.warm_pass_p50_s", median(warm))
	var evictions, staged float64
	if r.d.cache != nil { // the last rep's cache; every rep starts a fresh one
		s := r.d.cache.stats()
		evictions, staged = float64(s.Evictions), float64(s.BytesStaged)
	}
	set("stagecache.evictions", evictions)
	set("stagecache.bytes_staged", staged)

	set("bufpool.gets", float64(after.bpGets-before.bpGets))
	set("bufpool.allocs", float64(after.bpAllocs-before.bpAllocs))
	set("bufpool.hit_ratio", 1-ratio(float64(after.bpAllocs-before.bpAllocs), float64(after.bpGets-before.bpGets)))
	set("bufpool.alloc_kb_per_job", ratio(float64(after.totalAlloc-before.totalAlloc)/1024, float64(jobsN)))

	fn, foldBusy, foldMB, _ := layerStats(&p.fold)
	set("core.fold_busy_s", foldBusy)
	set("core.fold_mb_s", ratio(foldMB, foldBusy))
	set("core.fold_calls", fn)
	_, globalBusy, _, _ := layerStats(&p.global)
	set("core.global_reduce_s", globalBusy)
	set("apps.robj_bytes", ratio(float64(p.robjBytes.Load()), float64(p.robjCount.Load())))
	_, encBusy, _, _ := layerStats(&p.encode)
	_, decBusy, _, _ := layerStats(&p.decode)
	set("apps.robj_encode_s", encBusy)
	set("apps.robj_decode_s", decBusy)

	pn, _, _, pollMS := layerStats(&p.poll)
	set("head.poll_rtt_p50_us", 1000*percentile(pollMS, 0.5))
	set("head.poll_rtt_p99_us", 1000*percentile(pollMS, 0.99))
	set("head.polls", pn)
	set("head.empty_polls", float64(p.emptyPolls.Load()))
	set("head.jobs_per_poll", ratio(float64(p.grants.Load()), pn-float64(p.emptyPolls.Load())))
	cn, _, _, commitMS := layerStats(&p.commit)
	set("head.commit_rtt_p50_us", 1000*percentile(commitMS, 0.5))
	set("head.commit_rtt_p99_us", 1000*percentile(commitMS, 0.99))
	set("head.commits", cn)
	_, specBusy, _, _ := layerStats(&p.spec)
	_, submitBusy, _, _ := layerStats(&p.submit)
	set("head.query_spec_s", specBusy)
	set("head.submit_result_s", submitBusy)

	set("jobs.local", float64(local))
	set("jobs.stolen", float64(stolen))
	set("jobs.stolen_ratio", ratio(float64(stolen), float64(local+stolen)))
	set("jobs.dup_commits", float64(p.dupCommits.Load()))

	set("cluster.processing_s", proc.Seconds())
	set("cluster.retrieval_s", retr.Seconds())
	set("cluster.sync_s", sync.Seconds())
	_, _, _, latMS := layerStats(&p.jobLatency)
	set("cluster.job_latency_p50_ms", percentile(latMS, 0.5))
	set("cluster.job_latency_p99_ms", percentile(latMS, 0.99))

	var admitUS, pickupMS, fair, imbalance, idle []float64
	var tails, explained, residual []float64
	for _, rep := range reps {
		if !rep.traced {
			continue
		}
		var tail, expl time.Duration
		for _, b := range rep.batches {
			admitUS = append(admitUS, float64(b.admit)/float64(time.Microsecond)/float64(len(r.w.Queries)))
			pickupMS = append(pickupMS, float64(b.pickup)/float64(time.Millisecond))
			fair = append(fair, b.fairErr)
			imbalance = append(imbalance, b.imbalance)
			tail += b.syncTail
			expl += b.explained
			var gap time.Duration // what each site's lanes leave of the batch
			for _, busy := range r.siteBusy(b.reports) {
				if busy < b.makespan {
					gap += b.makespan - busy
				}
			}
			idle = append(idle, gap.Seconds())
		}
		tails = append(tails, tail.Seconds())
		explained = append(explained, expl.Seconds())
		residual = append(residual, rep.makespan.Seconds()-expl.Seconds())
	}
	set("head.admit_us", mean(admitUS))
	set("cluster.admit_pickup_ms", mean(pickupMS))
	set("jobs.fair_share_error", mean(fair))
	set("cluster.site_imbalance_ratio", mean(imbalance))
	set("cluster.idle_s", sum(idle))
	set("bench.sync_tail_s", median(tails))
	set("bench.explained_s", median(explained))
	set("bench.residual_s", median(residual))
	set("bench.residual_ratio", ratio(median(residual), median(traced)))
	set("bench.trace_overhead_ratio", ratio(median(traced), median(untraced)))

	wan := float64(after.wanBytes - before.wanBytes)
	var allSpan float64
	for _, v := range makespans {
		allSpan += v
	}
	set("netem.wan_bytes", wan)
	set("netem.wan_utilisation", ratio(wan, r.d.wanRate*allSpan))
}

// set records a metric under its declared unit.
func (r *runner) set(res *result, name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	res.Metrics[name] = metric{v, unit}
}

// finish adds what is only known after teardown.
func (r *runner) finish(res *result, setupS []float64, leaked int, outstanding int64) {
	r.set(res, "bench.goroutines_leaked", float64(leaked))
	r.set(res, "bufpool.outstanding", float64(outstanding))
	r.set(res, "setup_s", median(setupS))
	r.set(res, "peak_rss_mb", peakRSSMB())
	if leaked > 0 {
		res.errors = append(res.errors, fmt.Sprintf("%d goroutines leaked after teardown", leaked))
		res.Failed++
		res.Correct = false
	}
}

func mean(vs []float64) float64 { return ratio(sum(vs), float64(len(vs))) }

func sum(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s
}

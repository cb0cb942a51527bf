package head

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// QueryConfig describes one query to admit into a running head.
type QueryConfig struct {
	// Pool is the query's job pool (index × placement). Required.
	Pool *jobs.Pool
	// Reducer decodes cluster objects and performs this query's global
	// reduction. Required.
	Reducer core.Reducer
	// Spec is handed to masters that fetch this query's job specification.
	// Required fields: App, UnitSize, Index.
	Spec protocol.JobSpec
	// Weight is the query's fair-share weight (default 1): under
	// contention, job grants converge to the weight ratios.
	Weight int
	// ExpectAll, when set, requires a reduction result from every one of
	// the head's ExpectClusters masters (the all-masters completion rule).
	// When unset, only sites that actually contributed folds to the query must
	// report, so a query whose placement confines it to some sites
	// completes without involving the others.
	ExpectAll bool
	// Policy is the query's elasticity policy — deadline, budget, and
	// worker-count bounds — weighed by the session-wide arbiter against
	// every other admitted query's. Nil means policy-free. The arbiter
	// supplies cadence and pricing.
	Policy *protocol.ElasticPolicy
}

// Query is one admitted query's state at the head. All mutable fields are
// guarded by Head.mu.
type Query struct {
	id int
	h  *Head

	pool      *jobs.Pool
	reducer   core.Reducer
	spec      protocol.JobSpec
	weight    int
	expectAll bool
	policy    *protocol.ElasticPolicy

	// contrib marks sites whose folds are credited to this query: a site
	// joins on its first non-duplicate commit and leaves (in FailSite) only
	// if nothing it folded survives — no persisted checkpoint and no merged
	// result. Completion for non-ExpectAll queries is "pool drained and
	// every contributor has reported"; a reported site's next first commit
	// clears its mark, because those folds need a second object.
	contrib  map[int]bool
	reported map[int]bool
	// dropNotified marks sites already told (via PollReply.Dropped) to
	// discard their state for this canceled query.
	dropNotified map[int]bool

	reports   []ClusterReport
	finalObj  core.Object
	grTime    time.Duration
	collected int
	finishErr error
	finished  bool
	canceled  bool
	done      chan struct{}

	// Fault bookkeeping, per site (meaningful only when h.fs != nil).
	sinceCkpt  map[int][]jobs.Job
	ckptSeq    map[int]int
	emptySince time.Duration
	speculated bool

	// Latency-watchdog bookkeeping (populated only when h.watchdogOn()).
	// grantAt[site][jobID] is the head-clock instant the job was granted;
	// commits turn entries into grant→commit latency observations. flagged
	// marks sites already speculated against for this query.
	grantAt map[int]map[int]time.Duration
	flagged map[int]bool
	// latAll aggregates every site's grant→commit latency for this query
	// (the watchdog's cluster-wide median); latBySite splits it per site
	// (the watchdog's p99 source). Built with NewHistogram when metrics are
	// off, so the watchdog works without an observability registry.
	latAll    *obs.Histogram
	latBySite map[int]*obs.Histogram

	// traceID correlates every span of this query's lifecycle across the
	// head and the masters (deterministic: query id + 1, so 0 stays "no
	// trace" on the wire).
	traceID uint64

	mJobsGranted *obs.Counter
	mResults     *obs.Counter
	mJobsDone    map[int]*obs.Counter // per-site head_jobs_done_total handles
}

// jobLatencyBounds bucket grant→commit job latencies for the watchdog's
// per-(query, site) histograms: sub-millisecond control-plane tests through
// multi-minute cloud chunks.
var jobLatencyBounds = []time.Duration{
	100 * time.Microsecond, 300 * time.Microsecond,
	time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond,
	30 * time.Millisecond, 100 * time.Millisecond, 300 * time.Millisecond,
	time.Second, 3 * time.Second, 10 * time.Second, 30 * time.Second,
	2 * time.Minute,
}

// Admit registers a new query with the head: its jobs join the fair-share
// scheduler immediately and start flowing to registered masters in the next
// polls, interleaved with every other admitted query's.
func (h *Head) Admit(qc QueryConfig) (*Query, error) {
	if qc.Pool == nil {
		return nil, opErr("admit", -1, -1, errors.New("QueryConfig.Pool is required"))
	}
	if qc.Reducer == nil {
		return nil, opErr("admit", -1, -1, errors.New("QueryConfig.Reducer is required"))
	}
	if qc.Weight < 1 {
		qc.Weight = 1
	}
	if qc.Policy != nil {
		if err := qc.Policy.Validate(); err != nil {
			return nil, opErr("admit", -1, -1, err)
		}
		p := *qc.Policy
		qc.Policy = &p
	}
	h.mu.Lock()
	if h.shutdown {
		h.mu.Unlock()
		return nil, opErr("admit", -1, -1, ErrShutdown)
	}
	id := h.nextQuery
	h.nextQuery++
	reg := h.cfg.Obs.Metrics()
	q := &Query{
		id:           id,
		h:            h,
		pool:         qc.Pool,
		reducer:      qc.Reducer,
		spec:         qc.Spec,
		weight:       qc.Weight,
		expectAll:    qc.ExpectAll,
		policy:       qc.Policy,
		contrib:      make(map[int]bool),
		reported:     make(map[int]bool),
		dropNotified: make(map[int]bool),
		sinceCkpt:    make(map[int][]jobs.Job),
		ckptSeq:      make(map[int]int),
		done:         make(chan struct{}),
		grantAt:      make(map[int]map[int]time.Duration),
		flagged:      make(map[int]bool),
		latBySite:    make(map[int]*obs.Histogram),
		traceID:      uint64(id) + 1,
		mJobsGranted: reg.Counter("head_query_jobs_granted_total", "query", strconv.Itoa(id)),
		mResults:     reg.Counter("head_query_results_total", "query", strconv.Itoa(id)),
		mJobsDone:    make(map[int]*obs.Counter),
	}
	q.latAll = reg.Histogram("head_job_latency_seconds", jobLatencyBounds, "query", strconv.Itoa(id))
	if q.latAll == nil {
		q.latAll = obs.NewHistogram(jobLatencyBounds)
	}
	q.spec.Query = id
	if q.policy != nil {
		// Stamp the wire form so masters (and their own advisors) can see
		// the deadline/budget this query runs under.
		q.spec.Policy = *q.policy
	}
	h.queries[id] = q
	h.order = append(h.order, id)
	h.mu.Unlock()
	if err := h.fair.Add(id, qc.Pool, qc.Weight); err != nil {
		h.mu.Lock()
		delete(h.queries, id)
		h.order = h.order[:len(h.order)-1]
		h.mu.Unlock()
		return nil, opErr("admit", -1, id, err)
	}
	h.mu.Lock()
	h.notifyLocked() // the new pool's jobs are grantable to sites held in a poll
	h.mu.Unlock()
	h.cfg.Logf("head: admitted query %d (app %q, weight %d, %d jobs)",
		id, qc.Spec.App, qc.Weight, qc.Pool.Remaining())
	if h.tr.Enabled() {
		h.tr.Instant(0, 0, "lifecycle", fmt.Sprintf("admit query %d", id),
			obs.Args{"query": id, "weight": qc.Weight})
	}
	return q, nil
}

// ID returns the query's head-assigned identifier.
func (q *Query) ID() int { return q.id }

// Policy returns a copy of the elasticity policy the query was admitted
// with (after default inheritance), or nil for a policy-free query.
func (q *Query) Policy() *protocol.ElasticPolicy {
	if q.policy == nil {
		return nil
	}
	p := *q.policy
	return &p
}

// Done returns a channel closed when the query finishes (successfully or
// not); select on it alongside other channels, then call Wait for the
// outcome.
func (q *Query) Done() <-chan struct{} { return q.done }

// Wait blocks until the query completes, is canceled, or ctx expires, and
// returns the final reduction object with the per-cluster reports and the
// head's merge time for this query.
func (q *Query) Wait(ctx context.Context) (core.Object, []ClusterReport, time.Duration, error) {
	select {
	case <-ctx.Done():
		return nil, nil, 0, ctx.Err()
	case <-q.done:
	}
	q.h.mu.Lock()
	defer q.h.mu.Unlock()
	if q.finishErr != nil {
		return nil, nil, 0, q.finishErr
	}
	return q.finalObj, q.reports, q.grTime, nil
}

// Cancel withdraws the query: no further jobs are granted, masters are told
// to discard its state via PollReply.Dropped, and Wait returns
// ErrQueryCanceled. Jobs already granted are quietly absorbed — late
// commits for a canceled query read as duplicates, so masters drop the
// folds without error. Canceling a finished query is a no-op.
func (q *Query) Cancel() {
	h := q.h
	h.mu.Lock()
	if q.finished {
		h.mu.Unlock()
		return
	}
	q.canceled = true
	q.failLocked(opErr("cancel", -1, q.id, ErrQueryCanceled))
	h.notifyLocked() // every site now owes a Dropped notice
	h.retireCanceledLocked()
	h.mu.Unlock()
	h.fair.Remove(q.id)
	h.cfg.Logf("head: canceled query %d", q.id)
	if h.tr.Enabled() {
		h.tr.Instant(0, 0, "lifecycle", fmt.Sprintf("cancel query %d", q.id), obs.Args{"query": q.id})
	}
}

// failLocked ends the query with err and retires it, unless it is being
// canceled: a canceled query stays until every site has had its Dropped
// notice. Caller holds h.mu.
func (q *Query) failLocked(err error) {
	if q.finished {
		return
	}
	q.finished = true
	q.finishErr = err
	close(q.done)
	if !q.canceled {
		q.h.retireLocked(q.id)
	}
}

// finalizeLocked seals the final object, releases everyone waiting on the
// query and retires it. Caller holds h.mu.
func (q *Query) finalizeLocked() {
	q.finished = true
	close(q.done)
	q.h.retireLocked(q.id)
	q.h.cfg.Logf("head: query %d complete (%d cluster results)", q.id, q.collected)
}

// retireLocked forgets a finished query; the client's *Query keeps Wait and
// the reports. A late call naming its ID gets a finished query's answer:
// commits are all duplicates, a submit is dropped, a spec or checkpoint
// request is ErrUnknownQuery. Caller holds h.mu.
func (h *Head) retireLocked(id int) {
	delete(h.queries, id)
	if i := slices.Index(h.order, id); i >= 0 {
		h.order = slices.Delete(h.order, i, i+1)
	}
}

// retiredLocked reports whether id names a query this head admitted and has
// since retired. Caller holds h.mu.
func (h *Head) retiredLocked(id int) bool {
	return id >= 0 && id < h.nextQuery && h.queries[id] == nil
}

// retireCanceledLocked retires every canceled query whose Dropped notice
// has reached each live registered site (a fenced site re-registers with no
// query state, so it needs none). Caller holds h.mu.
func (h *Head) retireCanceledLocked() {
queries:
	for id, q := range h.queries {
		if !q.canceled {
			continue
		}
		for site := range h.clusters {
			if !q.dropNotified[site] && !(h.fs != nil && h.fs.leases.Dead(site)) {
				continue queries
			}
		}
		h.retireLocked(id)
	}
}

// completeLocked reports whether every expected reduction result is in.
// Every contributor must have reported — dynamic sites beyond
// ExpectClusters and a site handed reissued work after it reported
// included, since their folds travel only in their objects. Caller holds
// h.mu.
func (q *Query) completeLocked() bool {
	if q.finished {
		return false
	}
	if q.expectAll {
		// The all-masters rule: every expected cluster has submitted. A
		// master only submits once the head stops granting it jobs, so the
		// pool is drained by construction here — the seed's single-query
		// contract, preserved without re-checking drain.
		if q.collected < q.h.cfg.ExpectClusters {
			return false
		}
	} else if !q.pool.Drained() || len(q.contrib) == 0 || q.collected == 0 {
		return false
	}
	for site := range q.contrib {
		if !q.reported[site] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Site-facing scheduling surface.

// PollFrom answers one master's poll: it assigns at least req.N jobs and
// req.Bytes bytes runnable at the site, drawn from every admitted query by
// weighted fair share, and reports the per-query lifecycle transitions the
// site must act on — queries now expecting its reduction result (Done),
// canceled queries to discard (Dropped), a drain order and head shutdown.
// Shipped master-side spans are merged into the head's trace (aligned by
// the clock offset NowNS implies), each grant is stamped with its query's
// TraceContext and recorded as a head-side grant span, and the latency
// watchdog runs once per evaluation so an emerging straggler is flagged
// within one poll round. A fenced site gets an *OpError wrapping
// fault.ErrFenced and must re-register.
//
// A request with ParkNS set is HELD while its answer would be idle — no
// grants, no Done or Dropped notice, no Shutdown or Drain — and answered the
// moment an admission, a pool-draining commit, a cancel, a drain order, a
// requeue or shutdown changes that, or with the idle reply once ParkNS has
// passed. Spans are absorbed and head_pool_exhausted_total counted once per
// request, however often it is re-evaluated.
//
// The request's Commits are applied first, in order, so a commit that
// drains a pool gets its Done in this very reply; Acks answers them one for
// one. A poll that carries commits is never held, and one that carries
// commits and asks for nothing (N and Bytes 0) — a master's mid-batch
// commit — is answered with the acks alone: no grants, no notices and no
// drain; they wait for the site's next poll that asks for work. It does run
// the watchdog: the commits are new latency samples, and while the other
// sites sit in held polls no poll for work would judge them. A fenced site's poll is refused whole, none of its commits
// applied; a fence that lands between two of them refuses the poll too,
// and the head reissues what the first ones committed.
func (h *Head) PollFrom(req protocol.PollRequest) (protocol.PollReply, error) {
	return h.PollInto(req, nil)
}

// PollInto is PollFrom appending the reply's acks to acks[:0]: a caller
// that is done with each reply before it polls again — a session, or the
// simulator's master — reuses one slice.
func (h *Head) PollInto(req protocol.PollRequest, acks []protocol.JobsDoneAck) (protocol.PollReply, error) {
	site := req.Site
	if req.N < 0 || req.Bytes < 0 {
		return protocol.PollReply{}, opErr("poll", site, -1,
			fmt.Errorf("%w: asks for %d jobs and %d bytes", ErrBadRequest, req.N, req.Bytes))
	}
	if err := h.fencedCheck(site); err != nil {
		return protocol.PollReply{}, opErr("poll", site, -1, err)
	}
	h.Heartbeat(site)
	h.absorbSpans(site, req.NowNS, req.Spans)
	acks = acks[:0]
	for _, c := range req.Commits {
		ack, err := h.commit(site, c)
		if fault.IsFenced(err) {
			return protocol.PollReply{}, err
		}
		acks = append(acks, ack)
	}
	if len(acks) > 0 && req.N == 0 && req.Bytes == 0 {
		h.checkLatencyStragglers()
		return protocol.PollReply{Acks: acks}, nil
	}
	rep, wake, err := h.pollOnce(site, req.N, req.Bytes, true)
	rep.Acks = acks
	if err != nil || req.ParkNS <= 0 || len(acks) > 0 || !idleReply(rep) {
		return rep, err
	}
	return h.holdPoll(req, rep, wake)
}

// CompleteQueryJobs commits js for query from site on a commit poll and
// returns the ack's duplicates. Only the benchmark's control probe uses it.
func (h *Head) CompleteQueryJobs(query, site int, js []jobs.Job) ([]int, error) {
	return CommitAck(h.PollFrom(protocol.PollRequest{Site: site,
		Commits: []protocol.JobsDone{{Site: site, Query: query, Jobs: js}}}))
}

// holdPoll parks a request whose first evaluation came back idle: it waits
// for a wake-up, re-evaluates, and returns as soon as the reply carries
// anything — or returns the idle reply when the park runs out.
func (h *Head) holdPoll(req protocol.PollRequest, rep protocol.PollReply, wake <-chan struct{}) (protocol.PollReply, error) {
	site := req.Site
	park := time.Duration(req.ParkNS)
	if hb := h.cfg.Tuning.HeartbeatInterval(); hb > 0 && park > hb {
		// A held poll occupies the session the site's heartbeats ride on;
		// past one interval it could cost a healthy site its lease.
		park = hb
	}
	if reg := h.cfg.Obs.Metrics(); reg != nil {
		reg.Counter("head_polls_parked_total", "site", strconv.Itoa(site)).Inc()
	}
	start, ended := h.clk.Now(), h.hParkEvent
	defer func() { ended.Observe(h.clk.Now() - start) }()
	// The timer exists only from here on, once the reply is known to be idle:
	// most polls carry grants, and a timer per poll shows in allocs per job.
	timer := time.NewTimer(park)
	defer timer.Stop()
	for {
		select {
		case <-wake:
			if err := h.fencedCheck(site); err != nil {
				return protocol.PollReply{}, opErr("poll", site, -1, err)
			}
		case <-h.done:
			// The head stopped: one last evaluation carries Shutdown.
			rep, _, err := h.pollOnce(site, req.N, req.Bytes, false)
			return rep, err
		case <-timer.C:
			ended = h.hParkExpiry
			return rep, nil
		}
		var err error
		if rep, wake, err = h.pollOnce(site, req.N, req.Bytes, false); err != nil || !idleReply(rep) {
			return rep, err
		}
	}
}

// idleReply reports whether rep gives the master nothing to act on — the
// only kind of reply PollFrom holds back for a parking request.
func idleReply(rep protocol.PollReply) bool {
	return len(rep.Queries) == 0 && len(rep.Done) == 0 && len(rep.Dropped) == 0 &&
		!rep.Shutdown && !rep.Drain
}

// pollOnce evaluates one poll for site as of now, granting at least n jobs
// and bytes bytes where the pools have them. The wake channel it
// returns was captured BEFORE anything was read, so an event that lands
// after the evaluation looked has already closed it: a caller that waits on
// it cannot miss a wake-up. first marks a request's first evaluation, the
// one that counts an empty grant in head_pool_exhausted_total.
func (h *Head) pollOnce(site, n int, bytes int64, first bool) (protocol.PollReply, <-chan struct{}, error) {
	h.mu.Lock()
	wake := h.wake
	_, draining := h.draining[site]
	queries := len(h.order)
	if bytes > 0 {
		bytes = min(bytes, h.batchCapLocked())
	}
	h.mu.Unlock()
	if draining {
		rep, err := h.pollDraining(site)
		return rep, wake, err
	}
	grantStart := h.clk.Now()
	traced := h.tr.Enabled()
	sp := h.tr.Begin(0, 0, "scheduling", "request-jobs")
	tagged := h.fair.Assign(site, n, bytes)
	if traced {
		sp.End(obs.Args{"site": site, "asked": n, "asked_bytes": bytes, "granted": len(tagged)})
	}

	var rep protocol.PollReply
	rep.Queries = groupGrants(tagged, queries)

	now := h.clk.Now()
	watch := h.watchdogOn()
	h.mu.Lock()
	rep.Shutdown = h.shutdown
	for _, id := range h.order {
		q := h.queries[id]
		if i := grantIndex(rep.Queries, id); i >= 0 {
			granted := rep.Queries[i].Jobs
			q.mJobsGranted.Add(int64(len(granted)))
			if traced {
				rep.Queries[i].Trace = protocol.TraceContext{
					TraceID: q.traceID, SpanID: h.nextSpanID(),
				}
			}
			if watch {
				at := q.grantAt[site]
				if at == nil {
					at = make(map[int]time.Duration)
					q.grantAt[site] = at
				}
				for _, j := range granted {
					at[j.ID] = now
				}
			}
		}
		if q.canceled {
			if !q.dropNotified[site] {
				q.dropNotified[site] = true
				rep.Dropped = append(rep.Dropped, id)
			}
			continue
		}
		if q.pool.Drained() && !q.reported[site] && (q.expectAll || q.contrib[site]) {
			rep.Done = append(rep.Done, id)
		}
	}
	h.retireCanceledLocked()
	h.mu.Unlock()

	if traced {
		// One grant span per (query, grant): carries the query's TraceID and
		// the granted job IDs, so every master-side process span has a
		// head-side counterpart sharing its TraceID.
		for _, qj := range rep.Queries {
			ids := make([]int, len(qj.Jobs))
			for i, j := range qj.Jobs {
				ids[i] = j.ID
			}
			h.tr.Complete(0, 0, "scheduling", "grant", grantStart, now, obs.Args{
				"trace": qj.Trace.TraceID, "span": qj.Trace.SpanID,
				"query": qj.Query, "site": site, "jobs": ids,
			})
		}
	}

	if len(tagged) > 0 {
		h.mGrants.Inc()
		h.mJobsGranted.Add(int64(len(tagged)))
		if h.logging {
			h.cfg.Logf("head: granted %d jobs to site %d (%d queries)", len(tagged), site, len(rep.Queries))
		}
	} else if first {
		h.mExhausted.Inc()
	}
	h.checkLatencyStragglers()
	return rep, wake, nil
}

// batchShares bounds a byte floor: a poll's floor grants at most
// 1/batchShares of the admitted work per registered site, so every site
// still pulls its share in several batches, however small the dataset is
// beside the floor, and a site that registers later finds work left.
const batchShares = 8

// batchCapLocked is the largest byte floor a poll is granted: the admitted
// queries' bytes over batchShares × the registered sites.
func (h *Head) batchCapLocked() int64 {
	var admitted int64
	for _, id := range h.order {
		admitted += h.queries[id].pool.Bytes()
	}
	return admitted / int64(batchShares*max(len(h.clusters), 1))
}

// groupGrants groups fair-share grants by query, queries in order of first
// grant and each query's jobs in grant order, with every job in one backing
// array. queries sizes the group list: the number of admitted queries.
func groupGrants(tagged []jobs.Tagged, queries int) []protocol.QueryJobs {
	if len(tagged) == 0 {
		return nil
	}
	groups := make([]protocol.QueryJobs, 0, min(len(tagged), max(queries, 1)))
	all := make([]jobs.Job, 0, len(tagged))
	for i, tg := range tagged {
		if grantIndex(groups, tg.Query) >= 0 {
			continue
		}
		first := len(all)
		for _, later := range tagged[i:] {
			if later.Query == tg.Query {
				all = append(all, later.Job)
			}
		}
		groups = append(groups, protocol.QueryJobs{Query: tg.Query, Jobs: all[first:len(all):len(all)]})
	}
	return groups
}

// grantIndex returns the position of query's group in groups, or -1.
func grantIndex(groups []protocol.QueryJobs, query int) int {
	for i := range groups {
		if groups[i].Query == query {
			return i
		}
	}
	return -1
}

// pollDraining answers a poll from a site being decommissioned. No new jobs
// are granted; the site first commits whatever it still holds, then submits
// its reduction object for every query expecting one (Done), and on the
// poll after its last obligation clears it is told to leave (Drain) and
// departs.
func (h *Head) pollDraining(site int) (protocol.PollReply, error) {
	var rep protocol.PollReply
	h.mu.Lock()
	defer h.mu.Unlock()
	rep.Shutdown = h.shutdown
	outstanding, owes := 0, 0
	for _, id := range h.order {
		q := h.queries[id]
		if q.canceled {
			if !q.dropNotified[site] {
				q.dropNotified[site] = true
				rep.Dropped = append(rep.Dropped, id)
			}
			continue
		}
		if n := q.pool.OutstandingAt(site); n > 0 {
			// Copies this site still holds: let it finish and commit them
			// rather than requeue — the graceful half of the drain protocol.
			outstanding += n
			continue
		}
		if !q.reported[site] && (q.expectAll || q.contrib[site]) {
			owes++
			rep.Done = append(rep.Done, id)
		}
	}
	h.retireCanceledLocked()
	if outstanding == 0 && owes == 0 {
		rep.Drain = true
		h.departLocked(site)
	}
	return rep, nil
}

// absorbSpans merges the master-side spans shipped on a poll or a result
// into the head's trace, shifting their timestamps by the clock offset
// between the two processes (nowNS is the master's clock at send time; the
// one-way latency left in the estimate is far below span durations). Spans
// land on pid site+1, named by registerSite.
func (h *Head) absorbSpans(site int, nowNS int64, spans []protocol.WireSpan) {
	if !h.tr.Enabled() || len(spans) == 0 {
		return
	}
	var offset time.Duration
	if nowNS != 0 {
		offset = h.clk.Now() - time.Duration(nowNS)
	}
	pid := site + 1
	for _, s := range spans {
		start := time.Duration(s.Start) + offset
		h.tr.Complete(pid, s.TID, s.Cat, s.Name, start, start+time.Duration(s.Dur), obs.Args{
			"trace": s.Trace.TraceID, "span": s.Trace.SpanID,
			"query": s.Query, "job": s.Job, "site": site,
		})
	}
}

// QuerySpec returns the job specification a master needs to start (or,
// after re-registration, resume) processing one query: the admitted spec
// plus the site's last persisted checkpoint for that query, if any.
func (h *Head) QuerySpec(site, query int) (protocol.JobSpec, error) {
	if err := h.fencedCheck(site); err != nil {
		return protocol.JobSpec{}, opErr("spec", site, query, err)
	}
	h.mu.Lock()
	q := h.queries[query]
	canceled := q != nil && q.canceled
	h.mu.Unlock()
	if q == nil {
		return protocol.JobSpec{}, opErr("spec", site, query, ErrUnknownQuery)
	}
	if canceled {
		return protocol.JobSpec{}, opErr("spec", site, query, ErrQueryCanceled)
	}
	spec := q.spec
	spec.Checkpoint = h.recoverSpec(q, site)
	if h.tr.Enabled() {
		// Confirms trace propagation for this query: the master stamps this
		// TraceID on its spans and completion messages.
		spec.Trace = protocol.TraceContext{TraceID: q.traceID}
	}
	return spec, nil
}

// commit applies one commit riding site's poll, whatever done.Site says
// (PollInto has checked site's fence and renewed its lease), and returns
// its ack: Dup lists the IDs whose contribution another copy already
// supplied (the master must not fold those chunks). A commit for a canceled
// or finished query is acked with every ID a duplicate — the master
// discards the folds and moves on. A failure is both in the ack and
// returned; a fence that lands mid-commit fails the whole poll.
func (h *Head) commit(site int, done protocol.JobsDone) (ack protocol.JobsDoneAck, err error) {
	query := done.Query
	defer func() {
		if err != nil {
			h.cfg.Logf("head: completion error from site %d: %v", site, err)
			ack.Err, ack.Code = err.Error(), ErrCode(err)
		}
	}()
	h.mu.Lock()
	q := h.queries[query]
	if q == nil && !h.retiredLocked(query) {
		h.mu.Unlock()
		return ack, opErr("complete", site, query, ErrUnknownQuery)
	}
	if q == nil || q.canceled {
		h.mu.Unlock()
		ack.Dup = make([]int, len(done.Jobs))
		for i, j := range done.Jobs {
			ack.Dup[i] = j.ID
		}
		return ack, nil
	}
	h.mu.Unlock()
	now := h.clk.Now()
	for _, j := range done.Jobs {
		dup, cerr := q.pool.Commit(site, j)
		if cerr != nil {
			return ack, opErr("complete", site, query, cerr)
		}
		h.mu.Lock()
		if at := q.grantAt[site]; at != nil {
			// Grant→commit latency feeds the watchdog even for duplicate
			// commits — a straggler's late copies are exactly the signal.
			if t0, ok := at[j.ID]; ok {
				delete(at, j.ID)
				q.observeLatencyLocked(site, now-t0)
			}
		}
		if dup {
			h.mu.Unlock()
			ack.Dup = append(ack.Dup, j.ID)
			continue
		}
		if h.fs != nil && h.fs.leases.Dead(site) {
			// FailSite fenced the site between the poll's fence check and this
			// commit. If it has already collected sinceCkpt the job would stay
			// completed on behalf of an incarnation whose folds are gone, so
			// hand it back here (Reissue is idempotent if FailSite also does).
			h.mu.Unlock()
			q.pool.Reissue([]jobs.Job{j})
			return ack, opErr("complete", site, query, errFenced(site))
		}
		q.contrib[site] = true
		// A site that already reported and now folds reissued work owes a
		// second object with these folds; the query waits for it.
		delete(q.reported, site)
		if h.fs != nil {
			q.sinceCkpt[site] = append(q.sinceCkpt[site], j)
		}
		q.jobsDoneLocked(site).Inc()
		h.mu.Unlock()
	}
	if q.pool.Drained() {
		// This commit (a duplicate's released copy included) emptied the
		// pool: the query's Done is now due at every site that owes a result.
		h.mu.Lock()
		h.notifyLocked()
		h.mu.Unlock()
	}
	return ack, nil
}

// observeLatencyLocked records one grant→commit latency into the query's
// cluster-wide and per-site watchdog histograms. Caller holds h.mu.
func (q *Query) observeLatencyLocked(site int, lat time.Duration) {
	q.latAll.Observe(lat)
	hist := q.latBySite[site]
	if hist == nil {
		hist = q.h.cfg.Obs.Metrics().Histogram("head_job_latency_seconds", jobLatencyBounds,
			"query", strconv.Itoa(q.id), "site", strconv.Itoa(site))
		if hist == nil {
			hist = obs.NewHistogram(jobLatencyBounds)
		}
		q.latBySite[site] = hist
	}
	hist.Observe(lat)
}

// jobsDoneLocked returns the site's head_jobs_done_total{query,site} handle,
// resolving it on first commit. Caller holds h.mu.
func (q *Query) jobsDoneLocked(site int) *obs.Counter {
	c, ok := q.mJobsDone[site]
	if !ok {
		c = q.h.cfg.Obs.Metrics().Counter("head_jobs_done_total",
			"query", strconv.Itoa(q.id), "site", strconv.Itoa(site))
		q.mJobsDone[site] = c
	}
	return c
}

// SubmitQueryResult accepts one cluster's encoded reduction object for one
// query and merges it into that query's global result. It does not block
// for the rest of the query: the master keeps polling and serving other
// queries, and the final object is read with Query.Wait. Submissions for canceled or
// already-finished queries are refused with typed errors the master treats
// as "discard and move on". The spans riding the result are merged into the
// trace before the result counts, so a Query.Wait that returns sees them.
func (h *Head) SubmitQueryResult(res protocol.ReductionResult) error {
	if err := h.fencedCheck(res.Site); err != nil {
		return opErr("submit", res.Site, res.Query, err)
	}
	h.Heartbeat(res.Site)
	h.absorbSpans(res.Site, res.NowNS, res.Spans)
	h.mu.Lock()
	q := h.queries[res.Query]
	retired := h.retiredLocked(res.Query)
	h.mu.Unlock()
	if retired {
		return nil // late: the query's object is sealed
	}
	if q == nil {
		return opErr("submit", res.Site, res.Query, ErrUnknownQuery)
	}
	return h.submit(q, res)
}

// submit decodes, merges and records one cluster's result for q, finalizing
// the query when the last expected result lands.
func (h *Head) submit(q *Query, res protocol.ReductionResult) error {
	if h.fs != nil {
		// The submitted object carries every fold this site made for q, so
		// its un-checkpointed commits no longer need reissue on failure.
		h.mu.Lock()
		q.sinceCkpt[res.Site] = nil
		h.mu.Unlock()
	}
	obj, err := q.reducer.Decode(res.Object)
	if err != nil {
		err = opErr("submit", res.Site, q.id, fmt.Errorf("decoding reduction object: %w", err))
		h.mu.Lock()
		q.failLocked(err)
		h.mu.Unlock()
		h.fair.Remove(q.id)
		return err
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	if q.canceled {
		return opErr("submit", res.Site, q.id, ErrQueryCanceled)
	}
	if q.finished || q.reported[res.Site] {
		// Late or duplicate result: the query's object is already sealed
		// (or this site already counted); drop it without error.
		return nil
	}
	sp := h.tr.Begin(0, 0, "sync", "merge-robj")
	start := h.clk.Now()
	if q.finalObj == nil {
		q.finalObj = obj
	} else if err := q.reducer.GlobalReduce(q.finalObj, obj); err != nil {
		err = opErr("submit", res.Site, q.id, fmt.Errorf("global reduction: %w", err))
		q.failLocked(err)
		return err
	}
	merge := h.clk.Now() - start
	q.grTime += merge
	sp.End(obs.Args{"site": res.Site, "query": q.id})
	h.hGlobalRed.Observe(merge)
	h.mResults.Inc()
	q.mResults.Inc()
	q.reported[res.Site] = true
	q.contrib[res.Site] = true
	// The object holds everything the site's checkpoints for q covered, so a
	// later recovery must not reload them.
	q.ckptSeq[res.Site] = 0
	i := 0
	for i < len(q.reports) && q.reports[i].Site != res.Site {
		i++
	}
	if i == len(q.reports) {
		q.collected++
		q.reports = append(q.reports, ClusterReport{Site: res.Site, Cluster: h.clusters[res.Site]})
	}
	// A second object from one site (reissued work it folded after its
	// first report) adds to that site's report.
	r := &q.reports[i]
	r.Breakdown.Processing += time.Duration(res.Processing)
	r.Breakdown.Retrieval += time.Duration(res.Retrieval)
	r.Breakdown.Sync += time.Duration(res.Sync)
	r.Jobs.Local += res.LocalJobs
	r.Jobs.Stolen += res.StolenJobs
	if q.completeLocked() {
		q.finalizeLocked()
		h.fair.Remove(q.id)
	}
	return nil
}

// Shutdown ends the head's multi-query service: still-active queries fail
// with ErrShutdown, masters see PollReply.Shutdown on their next poll, and
// the failure monitor stops. Idempotent.
func (h *Head) Shutdown() {
	h.mu.Lock()
	if h.shutdown {
		h.mu.Unlock()
		return
	}
	h.shutdown = true
	for id, q := range h.queries { // failLocked retires q: range the map, not h.order
		q.failLocked(opErr("shutdown", -1, id, ErrShutdown))
		h.fair.Remove(id)
	}
	h.notifyLocked()
	h.mu.Unlock()
	h.markDone()
	h.cfg.Logf("head: shutdown")
}

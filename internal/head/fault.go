package head

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// FaultConfig enables the head's checkpoint persistence. The timing knobs
// that used to live here — lease TTL, heartbeat cadence, speculation delay —
// moved to the shared config.Tuning (Config.Tuning); this struct keeps only
// what is genuinely head-local. The zero value of both disables everything,
// preserving the original fail-fast behaviour (any lost master aborts the
// run).
type FaultConfig struct {
	// Store persists reduction-object checkpoints (the objstore client in
	// deployments, fault.MemStore in tests). nil disables checkpointing.
	Store fault.Store
	// CheckpointPrefix namespaces checkpoint keys in Store ("ckpt" if "").
	CheckpointPrefix string
}

// faultEnabled reports whether any fault machinery is on; it switches the
// head from fail-fast to recover-and-continue on lost masters.
func (h *Head) faultEnabled() bool {
	return h.cfg.Tuning.LeaseTTL > 0 || h.cfg.Fault.Store != nil || h.cfg.Tuning.SpeculateAfter > 0
}

// faultState is the head's recovery bookkeeping. The per-query pieces —
// un-checkpointed commits, checkpoint sequences, straggler timers — live on
// each Query; this holds what is genuinely per-site.
type faultState struct {
	leases *fault.Leases
	// ckptLocks[site] serializes a site's checkpoint persistence (stale-seq
	// check + Store.Put + reissue-boundary trim) against concurrent saves
	// and against FailSite's reissue, so the persisted blobs and the reissue
	// boundaries can never disagree — across every query the site serves.
	// Guarded by Head.mu for map access only; the per-site mutex itself is
	// held across the store write.
	ckptLocks map[int]*sync.Mutex

	mFailures    *obs.Counter
	mRecoveries  *obs.Counter
	mCheckpoints *obs.Counter
	mHeartbeats  *obs.Counter
	hCkptBytes   *obs.Histogram
}

// checkpointSizeBounds bucket checkpoint sizes; the histogram's Duration
// axis is repurposed as bytes (1 "ns" = 1 byte), documented in docs/FAULTS.md.
var checkpointSizeBounds = []time.Duration{
	1 << 10, 16 << 10, 256 << 10, 1 << 20, 16 << 20, 256 << 20,
}

func (h *Head) initFault() {
	if !h.faultEnabled() {
		return
	}
	reg := h.cfg.Obs.Metrics()
	h.fs = &faultState{
		leases:       fault.NewLeases(h.cfg.Tuning.LeaseTTL),
		ckptLocks:    make(map[int]*sync.Mutex),
		mFailures:    reg.Counter("head_site_failures_total"),
		mRecoveries:  reg.Counter("head_site_recoveries_total"),
		mCheckpoints: reg.Counter("head_checkpoints_total"),
		mHeartbeats:  reg.Counter("head_heartbeats_total"),
		hCkptBytes:   reg.Histogram("head_checkpoint_bytes", checkpointSizeBounds),
	}
	if h.cfg.Tuning.LeaseTTL > 0 || h.cfg.Tuning.SpeculateAfter > 0 {
		go h.monitor()
	}
}

// monitor is the head's wall-clock failure detector and straggler watchdog.
func (h *Head) monitor() {
	tick := h.cfg.Tuning.LeaseTTL / 4
	if tick <= 0 || (h.cfg.Tuning.SpeculateAfter > 0 && h.cfg.Tuning.SpeculateAfter/4 < tick) {
		if h.cfg.Tuning.SpeculateAfter > 0 {
			tick = h.cfg.Tuning.SpeculateAfter / 4
		}
	}
	if tick <= 0 {
		tick = 50 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-h.done:
			return
		case <-t.C:
		}
		now := h.clk.Now()
		for _, site := range h.fs.leases.Expired(now) {
			h.cfg.Logf("head: lease expired for site %d", site)
			h.FailSite(site)
		}
		h.checkStragglers(now)
		h.checkLatencyStragglers()
	}
}

// watchdogOn reports whether the latency watchdog runs: speculation must be
// enabled and the straggler factor not explicitly negative.
func (h *Head) watchdogOn() bool {
	return h.fs != nil && h.cfg.Tuning.SpeculateAfter > 0 &&
		h.cfg.Tuning.EffectiveStragglerFactor() > 0
}

// checkLatencyStragglers is the head's live straggler watchdog: for every
// active query it compares each site's p99 grant→commit latency against the
// query's cluster-wide median, and a site exceeding StragglerFactor× the
// median (with at least WatchdogMinSamples commits and work still in
// flight) is flagged once — its outstanding jobs for the query re-enter the
// pool as speculative copies, a head_straggler_flagged_total{query,site}
// counter ticks, and a trace instant marks the decision. It runs on every
// poll and on the monitor tick, so a slowdown is flagged within one poll
// round of the latencies that reveal it.
func (h *Head) checkLatencyStragglers() {
	if !h.watchdogOn() {
		return
	}
	factor := h.cfg.Tuning.EffectiveStragglerFactor()
	minSamples := int64(h.cfg.Tuning.EffectiveWatchdogMinSamples())
	type flagged struct {
		q        *Query
		site     int
		p99, med time.Duration
	}
	var flags []flagged
	h.mu.Lock()
	for _, id := range h.order {
		q := h.queries[id]
		if q.finished || q.canceled {
			continue
		}
		med := q.latAll.Quantile(0.5)
		if med <= 0 {
			continue
		}
		for site, hist := range q.latBySite {
			if q.flagged[site] || hist.Count() < minSamples {
				continue
			}
			if len(q.grantAt[site]) == 0 {
				continue // nothing in flight there: nothing to speculate
			}
			p99 := hist.Quantile(0.99)
			if float64(p99) > factor*float64(med) {
				q.flagged[site] = true
				flags = append(flags, flagged{q, site, p99, med})
			}
		}
	}
	h.mu.Unlock()
	if len(flags) == 0 {
		return
	}
	for _, f := range flags {
		spec := f.q.pool.SpeculateSite(f.site)
		h.cfg.Obs.Metrics().Counter("head_straggler_flagged_total",
			"query", strconv.Itoa(f.q.id), "site", strconv.Itoa(f.site)).Inc()
		h.cfg.Logf("head: watchdog flagged site %d on query %d (p99 %v > %.2g× median %v), speculated %d jobs",
			f.site, f.q.id, f.p99, factor, f.med, len(spec))
		if h.tr.Enabled() {
			h.tr.Instant(0, 0, "fault", fmt.Sprintf("straggler site %d", f.site), obs.Args{
				"query": f.q.id, "site": f.site,
				"p99_us": f.p99.Microseconds(), "median_us": f.med.Microseconds(),
				"speculated": len(spec),
			})
		}
	}
	h.mu.Lock()
	h.notifyLocked() // speculative copies are grantable to sites held in a poll
	h.mu.Unlock()
}

// checkStragglers fires speculative re-execution, per query, when a query's
// pool has been empty but undrained for longer than SpeculateAfter. Each
// query tracks its own empty episode so one slow query cannot mask another's
// stragglers.
func (h *Head) checkStragglers(now time.Duration) {
	if h.cfg.Tuning.SpeculateAfter <= 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, id := range h.order {
		q := h.queries[id]
		if q.finished || q.canceled {
			continue
		}
		if q.pool.Remaining() > 0 || q.pool.Outstanding() == 0 {
			q.emptySince = 0
			q.speculated = false
			continue
		}
		if q.emptySince == 0 {
			q.emptySince = now
			continue
		}
		if q.speculated || now-q.emptySince < h.cfg.Tuning.SpeculateAfter {
			continue
		}
		spec := q.pool.SpeculateOutstanding()
		q.speculated = true
		if len(spec) > 0 {
			h.notifyLocked()
			h.cfg.Logf("head: speculating %d straggler jobs for query %d", len(spec), id)
			if h.tr.Enabled() {
				h.tr.Instant(0, 0, "fault", "speculate", obs.Args{"jobs": len(spec), "query": id})
			}
		}
	}
}

// Heartbeat renews site's liveness lease.
func (h *Head) Heartbeat(site int) {
	if h.fs == nil {
		return
	}
	h.fs.mHeartbeats.Inc()
	h.fs.leases.Renew(site, h.clk.Now())
}

// siteCkptLock returns site's checkpoint-persistence mutex, creating it on
// first use.
func (h *Head) siteCkptLock(site int) *sync.Mutex {
	h.mu.Lock()
	defer h.mu.Unlock()
	m := h.fs.ckptLocks[site]
	if m == nil {
		m = &sync.Mutex{}
		h.fs.ckptLocks[site] = m
	}
	return m
}

// FailSite declares site failed: its lease is revoked, its in-flight jobs
// return to every query's pool, and completions not covered by each query's
// last persisted checkpoint are reissued for recomputation. From the
// MarkDead onwards the site is FENCED: Poll, CompleteQueryJobs,
// CheckpointSave and SubmitQueryResult all refuse its traffic until it
// re-registers, so a dead-marked-but-alive straggler cannot double-count
// work handed out for recomputation here. A query the site never actually
// contributed to (no surviving folds: nothing checkpointed, nothing
// reported) drops the site from its expected reporters, so killing one
// query's master does not stall the queries it never touched. Idempotent
// per failure episode.
func (h *Head) FailSite(site int) {
	if h.fs == nil {
		return
	}
	if !h.fs.leases.MarkDead(site) {
		return // already handled
	}
	h.fs.mFailures.Inc()
	if h.tr.Enabled() {
		h.tr.Instant(0, 0, "fault", fmt.Sprintf("detect-failure site %d", site), obs.Args{"site": site})
	}
	h.mu.Lock()
	actives := make([]*Query, 0, len(h.order))
	for _, id := range h.order {
		if q := h.queries[id]; !q.finished && !q.canceled {
			actives = append(actives, q)
		}
	}
	h.mu.Unlock()
	// The per-site checkpoint lock orders the reissues against an in-flight
	// CheckpointSave: either the save finished (its covered jobs are already
	// trimmed from sinceCkpt and stay credited to the persisted checkpoint)
	// or it will be rejected as fenced — the reissue boundary and the stored
	// blob always agree, for every query.
	ckl := h.siteCkptLock(site)
	ckl.Lock()
	for _, q := range actives {
		requeued := q.pool.FailSite(site)
		h.mu.Lock()
		lost := q.sinceCkpt[site]
		q.sinceCkpt[site] = nil
		// The site's watchdog state dies with it: pending grants can never
		// commit, and a recovered incarnation earns a fresh verdict.
		delete(q.grantAt, site)
		delete(q.flagged, site)
		hasCkpt := q.ckptSeq[site] != 0
		h.mu.Unlock()
		reissued := q.pool.Reissue(lost)
		h.mu.Lock()
		if !hasCkpt && !q.reported[site] {
			// Nothing this site folded for q survives; it owes no report.
			delete(q.contrib, site)
			if q.completeLocked() {
				q.finalizeLocked()
				h.fair.Remove(q.id)
			}
		}
		h.mu.Unlock()
		if len(requeued) > 0 || reissued > 0 {
			h.cfg.Logf("head: site %d failed: query %d requeued %d in-flight, reissued %d un-checkpointed jobs",
				site, q.id, len(requeued), reissued)
		}
		if h.tr.Enabled() {
			h.tr.Instant(0, 0, "fault", fmt.Sprintf("reassign site %d", site),
				obs.Args{"query": q.id, "requeued": len(requeued), "reissued": reissued})
		}
	}
	ckl.Unlock()
	// A draining site that dies (lease expiry, or the driver forcing a stuck
	// drain) was leaving anyway: complete the departure so drain waiters
	// unblock. The dead mark outlives the departure — Release only stops
	// lease tracking — so a zombie incarnation stays fenced.
	h.mu.Lock()
	if _, ok := h.draining[site]; ok {
		h.departLocked(site)
	}
	// Requeued and reissued jobs are grantable to sites held in a poll, and
	// the failed site's own held poll must come back fenced.
	h.notifyLocked()
	h.mu.Unlock()
}

// CheckpointSave persists a cluster's reduction-object checkpoint for one
// query and advances that query's reissue boundary: jobs covered by the
// checkpoint no longer need recomputation if the site dies. Receipt renews
// the site's lease — the master's control connection is busy shipping the
// (possibly large) object, so this message IS its heartbeat for the
// duration. The whole stale-check → Store.Put → boundary-trim sequence runs
// under a per-site mutex, ordered against FailSite's reissue, so two racing
// saves (or a save racing failure detection) cannot leave the stored blob
// and the reissue boundary disagreeing.
func (h *Head) CheckpointSave(cs protocol.CheckpointSave) error {
	if h.fs == nil || h.cfg.Fault.Store == nil {
		return opErr("checkpoint", cs.Site, cs.Query, errors.New("checkpointing not enabled"))
	}
	h.Heartbeat(cs.Site)
	h.mu.Lock()
	q := h.queries[cs.Query]
	h.mu.Unlock()
	if q == nil {
		return opErr("checkpoint", cs.Site, cs.Query, ErrUnknownQuery)
	}
	if q.canceled {
		return opErr("checkpoint", cs.Site, cs.Query, ErrQueryCanceled)
	}
	ck, err := fault.DecodeCheckpoint(cs.Data)
	if err != nil {
		return opErr("checkpoint", cs.Site, cs.Query, err)
	}
	ckl := h.siteCkptLock(cs.Site)
	ckl.Lock()
	defer ckl.Unlock()
	// A fenced incarnation's checkpoint covers jobs whose contributions were
	// already reissued; persisting it would resurrect them on recovery.
	if err := h.fencedCheck(cs.Site); err != nil {
		return opErr("checkpoint", cs.Site, cs.Query, err)
	}
	h.mu.Lock()
	if cs.Seq <= q.ckptSeq[cs.Site] && q.ckptSeq[cs.Site] != 0 {
		have := q.ckptSeq[cs.Site]
		h.mu.Unlock()
		return opErr("checkpoint", cs.Site, cs.Query,
			fmt.Errorf("seq %d, have %d: %w", cs.Seq, have, ErrStaleCheckpoint))
	}
	h.mu.Unlock()
	key := fault.QueryKey(h.cfg.Fault.CheckpointPrefix, cs.Query, cs.Site)
	if err := h.cfg.Fault.Store.Put(key, cs.Data); err != nil {
		return opErr("checkpoint", cs.Site, cs.Query, fmt.Errorf("persisting: %w", err))
	}
	covered := make(map[int]bool, len(ck.Completed))
	for _, id := range ck.Completed {
		covered[id] = true
	}
	h.mu.Lock()
	q.ckptSeq[cs.Site] = cs.Seq
	kept := q.sinceCkpt[cs.Site][:0]
	for _, j := range q.sinceCkpt[cs.Site] {
		if !covered[j.ID] {
			kept = append(kept, j)
		}
	}
	q.sinceCkpt[cs.Site] = kept
	h.mu.Unlock()
	h.fs.mCheckpoints.Inc()
	h.fs.hCkptBytes.Observe(time.Duration(len(cs.Data)))
	h.cfg.Logf("head: checkpoint %d from site %d for query %d (%d jobs, %d bytes)",
		cs.Seq, cs.Site, cs.Query, len(ck.Completed), len(cs.Data))
	return nil
}

// recoverSpec loads the (query, site) checkpoint for a re-registering
// cluster; nil when checkpointing is off or nothing was persisted.
func (h *Head) recoverSpec(query, site int) []byte {
	if h.fs == nil || h.cfg.Fault.Store == nil {
		return nil
	}
	data, err := h.cfg.Fault.Store.Get(fault.QueryKey(h.cfg.Fault.CheckpointPrefix, query, site))
	if err != nil {
		return nil // no checkpoint yet: resume from scratch
	}
	return data
}

package hybridsim

import (
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// This file drives a fault.Plan on the simulator's virtual clock. It mirrors
// the live stack piece for piece so the same plan exercises both:
//
//   - crash        → internal/fault.Injector killing a worker's data path
//   - detect       → the head's lease monitor (FailSite + Reissue on every
//                    query's pool)
//   - checkpoint   → the cluster runtime's periodic reduction-object ship,
//                    one object per (query, cluster)
//   - restart      → a replacement worker re-registering and resuming from
//                    its last checkpoints
//   - partition    → deferred commits, lease fencing when the outage outlives
//                    the TTL
//   - slowdown     → a straggler; speculation re-adds its outstanding jobs
//
// Everything runs single-threaded on simtime.Clock, so runs with the same
// plan and seed are byte-identical. The conservation invariant the live pool
// enforces holds here too: summing every cluster's job accounting for a
// query at the end of a faulty run yields exactly one credit per chunk (per
// pass), no matter how many copies were executed.

// FaultStats summarizes fault activity during a simulated run.
type FaultStats struct {
	// Crashes, Partitions and Slowdowns count injected events that landed on
	// a live cluster (events targeting a dead or finished cluster are no-ops).
	Crashes, Partitions, Slowdowns int
	// Recoveries counts restarts that rejoined the run — after a crash, or
	// after a partition that outlived the lease and fenced the site.
	Recoveries int
	// Checkpoints and CheckpointBytes count durable reduction-object
	// checkpoints shipped to the head.
	Checkpoints     int
	CheckpointBytes int64
	// Requeued counts in-flight jobs returned to the pool by failure
	// detection; Reissued counts committed-but-un-checkpointed jobs whose
	// contribution was revoked for re-execution.
	Requeued, Reissued int
	// DupCommits counts completions the pool deduplicated (speculative or
	// post-partition duplicates); Speculated counts speculative copies issued
	// against stragglers.
	DupCommits, Speculated int
	// LatencyFlags counts (query, cluster) pairs the latency watchdog
	// flagged as stragglers (p99 grant-to-commit latency above
	// Plan.EffectiveStragglerFactor() times the query's median).
	LatencyFlags int
}

// scheduleFaults validates the plan and books its events. Each event
// resolves its target clusters when it fires, so a burst worker launched at
// the event's site before then is hit too.
func (s *multiSim) scheduleFaults() error {
	plan := s.cfg.faults
	if !plan.Active() {
		return nil
	}
	if err := plan.Validate(); err != nil {
		return err
	}
	for _, ev := range plan.Events {
		if !s.siteCanExist(ev.Site) {
			return fmt.Errorf("hybridsim: fault event %q targets site %d, which has no cluster", ev.String(), ev.Site)
		}
		ev := ev
		s.clock.At(ev.At, func() {
			for _, c := range s.clusters {
				if c.model.Site == ev.Site {
					s.applyEvent(c, ev)
				}
			}
		})
	}
	return nil
}

// siteCanExist reports whether a static cluster sits at site, or a burst
// worker may be launched there.
func (s *multiSim) siteCanExist(site int) bool {
	for _, c := range s.clusters {
		if c.model.Site == site {
			return true
		}
	}
	return s.cfg.Elastic != nil && site >= s.cfg.Elastic.siteBase()
}

func (s *multiSim) applyEvent(c *mqCluster, ev fault.Event) {
	switch ev.Kind {
	case fault.Crash:
		s.crash(c)
	case fault.Partition:
		s.partition(c)
	case fault.Slowdown:
		if !c.live() {
			return
		}
		c.slowFactor = ev.Factor
		s.fstats.Slowdowns++
		if s.tr.Enabled() {
			s.tr.InstantAt(c.pid(), 0, "fault", "slowdown", s.clock.Now(), obs.Args{"factor": ev.Factor})
		}
	case fault.Recover:
		s.recoverCluster(c)
	}
}

// live reports whether a fault can still hurt the cluster: it is up, has
// not left the fleet, and some query is still handing out work (once every
// pool has drained, the objects are on their way to the head).
func (c *mqCluster) live() bool {
	return !c.down && !c.gone && !c.s.allDrained()
}

// failing reports a crash or partition the head has not detected yet.
func (c *mqCluster) failing() bool {
	return (c.down || c.partitioned) && c.detectedEpoch != c.epoch
}

// crash kills a cluster: local state dies with the incarnation, the head
// detects the failure after the lease TTL (immediately with no leases), and
// a replacement boots after Plan.Restart().
func (s *multiSim) crash(c *mqCluster) {
	if !c.live() {
		return
	}
	s.fstats.Crashes++
	if s.tr.Enabled() {
		s.tr.InstantAt(c.pid(), 0, "fault", "crash", s.clock.Now(), nil)
	}
	epoch := s.kill(c)
	if ttl := s.cfg.faults.LeaseTTL; ttl > 0 {
		s.clock.After(ttl, func() {
			if c.epoch == epoch && c.down {
				s.detect(c)
			}
		})
	} else {
		s.detect(c)
	}
}

// kill takes the cluster down until a replacement boots after
// Plan.Restart(), and returns the replacement's epoch. The volatile state —
// queued jobs, buffered chunks, in-flight transfers, busy cores — dies with
// the machine; the epoch bump makes every callback the old incarnation
// scheduled a no-op.
func (s *multiSim) kill(c *mqCluster) int {
	s.clock.After(s.cfg.faults.Restart(), func() { s.restart(c) })
	c.epoch++
	c.down = true
	c.queue = nil
	c.ready = nil
	c.inFlight = 0
	c.busyCores = 0
	c.freeAll()
	c.requesting = false
	c.exhausted = false
	c.checkpointing = false
	c.partitioned = false
	c.fenced = false
	c.slowFactor = 1
	c.deferred = nil
	return c.epoch
}

// detect is the head noticing the failed site — lease expiry in live mode.
// In every query's pool, in-flight jobs return to the pool and
// committed-but-un-checkpointed contributions are reissued: their credit is
// revoked here and granted to whichever cluster recommits them.
func (s *multiSim) detect(c *mqCluster) {
	if c.detectedEpoch == c.epoch {
		return // this incarnation's failure was already handled
	}
	c.detectedEpoch = c.epoch
	requeued, reissued := 0, 0
	for q, pool := range s.pools {
		st := &c.perQuery[q]
		requeued += len(pool.FailSite(c.model.Site))
		reissued += pool.Reissue(st.sinceCkpt)
		for _, j := range st.sinceCkpt {
			if j.Site == c.model.Site {
				st.jobs.Local--
			} else {
				st.jobs.Stolen--
			}
		}
		st.sinceCkpt = nil
		st.trimSeq = st.commitSeq
		// The head forgets the failed site's watchdog state alongside its
		// in-flight grants (mirrors FailSite in internal/head/fault.go): the
		// replacement incarnation is judged afresh.
		if st.grantAt != nil {
			st.grantAt = make(map[int]time.Duration)
		}
		st.wdFlagged = false
	}
	s.fstats.Requeued += requeued
	s.fstats.Reissued += reissued
	if s.tr.Enabled() {
		s.tr.InstantAt(0, 0, "fault", fmt.Sprintf("detect site %d", c.model.Site), s.clock.Now(),
			obs.Args{"requeued": requeued, "reissued": reissued})
	}
	// A pool that drained while this failure went unnoticed can reduce now.
	for q := range s.pools {
		s.maybeReduce(q)
	}
}

// restart boots the replacement: reconcile with the head (a restart can beat
// the lease detector, exactly like live re-registration), fetch every
// query's last checkpoint back in one transfer, ship any reduction object the
// head asked for meanwhile, and resume polling.
func (s *multiSim) restart(c *mqCluster) {
	s.detect(c)
	c.down = false
	s.fstats.Recoveries++
	hasCkpt, ckptBytes := false, int64(0)
	for q, st := range c.perQuery {
		if st.hasCkpt {
			hasCkpt, ckptBytes = true, ckptBytes+s.cfg.Queries[q].App.RobjBytes
		}
	}
	if s.tr.Enabled() {
		s.tr.InstantAt(c.pid(), 0, "fault", "restart", s.clock.Now(), obs.Args{"checkpoint": hasCkpt})
	}
	epoch := c.epoch
	resume := func() {
		if c.epoch != epoch || c.down {
			return
		}
		c.exhausted = false
		for q := range c.perQuery {
			if c.perQuery[q].pendingShip {
				c.ship(q)
			}
		}
		c.poll()
		s.maybeDrained(c)
	}
	if !hasCkpt {
		resume()
		return
	}
	s.net.Start(ckptBytes, s.robjLatency(c), 0, s.robjResources(c), resume)
}

// partition cuts the cluster off from the head and the storage sites until
// the matching Recover event. Chunks already buffered keep processing;
// completions are deferred. If the outage outlives the lease TTL the head
// declares the site failed and fences it.
func (s *multiSim) partition(c *mqCluster) {
	if !c.live() || c.partitioned {
		return
	}
	c.partitioned = true
	s.fstats.Partitions++
	if s.tr.Enabled() {
		s.tr.InstantAt(c.pid(), 0, "fault", "partition", s.clock.Now(), nil)
	}
	if ttl := s.cfg.faults.LeaseTTL; ttl > 0 {
		epoch := c.epoch
		s.clock.After(ttl, func() {
			if c.epoch == epoch && c.partitioned && !c.down {
				c.fenced = true
				s.detect(c)
			}
		})
	}
}

// recoverCluster ends an active slowdown and/or partition.
func (s *multiSim) recoverCluster(c *mqCluster) {
	if c.down || c.gone {
		return
	}
	c.slowFactor = 1
	if !c.partitioned {
		return
	}
	c.partitioned = false
	if c.fenced {
		// The head already declared this site failed and handed its work
		// out; the stale master's deferred commits would be refused
		// (fencing), so it restarts from its checkpoints like a crash.
		s.kill(c)
		return
	}
	// Healed before the lease expired: flush deferred completions — the pool
	// deduplicates any the head re-assigned meanwhile — and resume.
	deferred := c.deferred
	c.deferred = nil
	for _, tg := range deferred {
		c.commit(tg)
	}
	if s.tr.Enabled() {
		s.tr.InstantAt(c.pid(), 0, "fault", "partition-healed", s.clock.Now(),
			obs.Args{"flushed": len(deferred)})
	}
	for q := range s.pools {
		s.maybeReduce(q)
	}
	c.poll()
	c.kickRetrievers()
	c.kickCores()
	s.maybeDrained(c)
}

// watchdogLatencyBounds mirror the live head's job-latency histogram
// buckets so a simulated watchdog judges p99-vs-median on the same grid.
var watchdogLatencyBounds = []time.Duration{
	100 * time.Microsecond, 300 * time.Microsecond,
	time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond,
	30 * time.Millisecond, 100 * time.Millisecond, 300 * time.Millisecond,
	time.Second, 3 * time.Second, 10 * time.Second, 30 * time.Second,
	2 * time.Minute,
}

// watchdogOn reports whether the plan arms the latency watchdog: it rides on
// speculation (SpeculateAfter > 0) and can be vetoed with a negative
// StragglerFactor, exactly like the live head's config.Tuning gate.
func (s *multiSim) watchdogOn() bool {
	return s.cfg.faults.SpeculateAfter > 0 && s.cfg.faults.EffectiveStragglerFactor() > 0
}

// checkLatencyStragglers is the simulated twin of the head's latency
// watchdog, run per pool on every poll: a cluster still holding a query's
// granted jobs whose p99 grant-to-commit latency for that query exceeds
// StragglerFactor times the query's median is flagged once, and its
// outstanding jobs are re-added to that pool as speculative copies for
// healthy clusters to steal.
func (s *multiSim) checkLatencyStragglers() {
	factor := s.cfg.faults.EffectiveStragglerFactor()
	minSamples := int64(s.cfg.faults.EffectiveWatchdogMinSamples())
	for q, all := range s.latAll {
		med := all.Quantile(0.5)
		if med <= 0 {
			continue
		}
		for _, c := range s.clusters {
			st := &c.perQuery[q]
			if st.wdFlagged || c.down || c.gone || len(st.grantAt) == 0 || st.latHist.Count() < minSamples {
				continue
			}
			p99 := st.latHist.Quantile(0.99)
			if float64(p99) <= factor*float64(med) {
				continue
			}
			st.wdFlagged = true
			js := s.pools[q].SpeculateSite(c.model.Site)
			s.fstats.Speculated += len(js)
			s.fstats.LatencyFlags++
			if s.tr.Enabled() {
				s.tr.InstantAt(0, 0, "fault", fmt.Sprintf("straggler site %d", c.model.Site), s.clock.Now(),
					obs.Args{"query": q, "p99_us": p99.Microseconds(), "median_us": med.Microseconds(), "speculated": len(js)})
			}
		}
	}
}

// noteEmptyGrant starts (at most one) straggler watchdog per
// empty-but-undrained episode; if no grant lands for Plan.SpeculateAfter,
// every pool's outstanding jobs are re-added as speculative copies.
func (s *multiSim) noteEmptyGrant() {
	after := s.cfg.faults.SpeculateAfter
	if after <= 0 || s.emptySince >= 0 {
		return
	}
	s.emptySince = s.clock.Now()
	s.clock.After(after, func() {
		if s.emptySince < 0 {
			return
		}
		n := 0
		for _, pool := range s.pools {
			n += len(pool.SpeculateOutstanding())
		}
		s.fstats.Speculated += n
		if s.tr.Enabled() && n > 0 {
			s.tr.InstantAt(0, 0, "fault", "speculate", s.clock.Now(), obs.Args{"jobs": n})
		}
	})
}

// checkpointTick fires every Plan.CheckpointEvery per cluster and starts a
// checkpoint when there is anything new to cover.
func (c *mqCluster) checkpointTick() {
	s := c.s
	if c.gone || s.allDrained() {
		return // every object is on its way to the head; stop the ticker
	}
	s.clock.After(s.cfg.faults.CheckpointEvery, c.checkpointTick)
	if c.down || c.partitioned || c.checkpointing {
		return
	}
	c.beginCheckpoint()
}

// beginCheckpoint models the live checkpoint pipeline: quiesce and merge the
// worker objects of every query with new commits (new folds stall for the
// merges), then ship one object per query to the head in the background.
// The covered jobs become durable only when that object lands — a crash
// mid-ship loses the checkpoint, not jobs.
func (c *mqCluster) beginCheckpoint() {
	s := c.s
	type cover struct{ query, jobs, seq int }
	var covers []cover
	merge := time.Duration(0)
	for q := range c.perQuery {
		if st := &c.perQuery[q]; len(st.sinceCkpt) > 0 {
			covers = append(covers, cover{q, len(st.sinceCkpt), st.commitSeq})
			merge += s.cfg.Queries[q].App.mergeTime()
		}
	}
	if len(covers) == 0 {
		return
	}
	c.checkpointing = true
	epoch := c.epoch
	start := s.clock.Now()
	s.clock.After(merge, func() {
		if c.epoch != epoch {
			return
		}
		c.checkpointing = false
		c.kickCores()
		for _, cv := range covers {
			cv := cv
			st := &c.perQuery[cv.query]
			bytes := s.cfg.Queries[cv.query].App.RobjBytes
			s.net.Start(bytes, s.robjLatency(c), 0, s.robjResources(c), func() {
				if c.epoch != epoch || c.fenced {
					// Dead with the incarnation, or fenced: the head refuses a
					// dead-marked site's checkpoint, so it never becomes durable.
					return
				}
				// Cores resume as soon as the merge ends, so a later checkpoint
				// can begin (and even land) while this object is still on the
				// wire: trim only the commits this one covers beyond what
				// earlier landings, a ship or a failure reissue already removed.
				if drop := cv.seq - st.trimSeq; drop > 0 {
					st.sinceCkpt = append(st.sinceCkpt[:0:0], st.sinceCkpt[drop:]...)
					st.trimSeq = cv.seq
				}
				st.hasCkpt = true
				st.ckptSeq++
				s.fstats.Checkpoints++
				s.fstats.CheckpointBytes += bytes
				if s.tr.Enabled() {
					s.tr.Complete(c.pid(), 0, "fault", "checkpoint", start, s.clock.Now(),
						obs.Args{"query": cv.query, "seq": st.ckptSeq, "jobs": cv.jobs, "bytes": bytes})
				}
			})
		}
	})
}

// robjResources and robjLatency pick the transfer cost of moving a reduction
// object between a cluster and the head: the shared inter-cluster pipe,
// waived for the cluster co-located with the head node.
func (s *multiSim) robjResources(c *mqCluster) []*Resource {
	if c.index == s.cfg.Topology.HeadCluster || s.interRes == nil {
		return nil
	}
	return []*Resource{s.interRes}
}

func (s *multiSim) robjLatency(c *mqCluster) time.Duration {
	if c.index == s.cfg.Topology.HeadCluster {
		return s.cfg.Topology.ControlLatency
	}
	return s.cfg.Topology.InterClusterLatency
}

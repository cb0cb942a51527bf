package hybridsim

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/fault"
	"repro/internal/head"
	"repro/internal/obs"
)

// This file drives a fault.Plan on the virtual clock. The policy side —
// leases, fencing, requeue and reissue, checkpoint boundaries, speculation
// and the latency watchdog — is the run's in-process head.Head; the
// simulator models only what happens to the machines (crash, reboot,
// partition, slowdown). What each agent knows — its objects and checkpoints
// — is the live agent's cluster.AgentCore. With the same plan and seed, runs
// are byte-identical, and every query still credits each chunk exactly once
// per pass.

// FaultStats summarizes fault activity during a simulated run.
type FaultStats struct {
	// Crashes, Partitions and Slowdowns count injected events that landed on
	// a live cluster (events targeting a dead or finished cluster are no-ops).
	Crashes, Partitions, Slowdowns int
	// Recoveries counts incarnations that rejoined the run — a restart after
	// a crash, or a re-registration after a fencing rejection.
	Recoveries int
	// Checkpoints and CheckpointBytes count reduction-object checkpoints the
	// head accepted.
	Checkpoints     int
	CheckpointBytes int64
	// Requeued counts in-flight jobs returned to the pool by failure
	// detection; Reissued counts committed-but-un-checkpointed jobs whose
	// contribution was revoked for re-execution (the pools' counters).
	Requeued, Reissued int
	// DupCommits counts completions the head answered as duplicates
	// (speculative or post-partition copies); Speculated counts speculative
	// copies the head issued against stragglers.
	DupCommits, Speculated int
	// LatencyFlags counts (query, site) pairs the head's latency watchdog
	// flagged as stragglers.
	LatencyFlags int
}

// faultStats completes the simulator-side counts with the pools' and the
// head's counters in the run's registry. A registry is one run's: the head
// also keeps its watchdog's latency histograms there.
func (s *multiSim) faultStats() FaultStats {
	f := s.fstats
	if !s.cfg.Faults.Active() {
		return f
	}
	seen := make(map[*obs.Registry]bool)
	for _, q := range s.cfg.Queries {
		if r := q.PoolOpts.Metrics; !seen[r] {
			seen[r] = true
			f.Requeued += int(r.Counter("pool_jobs_requeued_total").Value())
			f.Reissued += int(r.Counter("pool_jobs_reissued_total").Value())
			f.Speculated += int(r.Counter("pool_jobs_speculated_total").Value())
		}
	}
	for id := range s.byID {
		for _, c := range s.clusters {
			f.LatencyFlags += int(s.reg.Counter("head_straggler_flagged_total",
				"query", strconv.Itoa(id), "site", strconv.Itoa(c.model.Site)).Value())
		}
	}
	return f
}

// scheduleFaults validates the plan and books its events. Each event
// resolves its target clusters when it fires, so a burst worker launched at
// the event's site before then is hit too.
func (s *multiSim) scheduleFaults() error {
	plan := s.cfg.Faults
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
	return s.cfg.Elastic != nil && site >= head.BurstSiteBase
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

// errCrashed is the session loss a crashed master's head sees.
var errCrashed = errors.New("hybridsim: master crashed")

// crash kills a cluster and books its replacement's boot after
// Plan.Restart(). Without leases the head sees the session drop at once;
// with leases it notices when the heartbeats stop.
func (s *multiSim) crash(c *mqCluster) {
	if !c.live() {
		return
	}
	s.fstats.Crashes++
	if s.tr.Enabled() {
		s.tr.InstantAt(c.pid(), 0, "fault", "crash", s.clock.Now(), nil)
	}
	c.reset()
	c.down = true
	s.clock.After(s.cfg.Faults.Restart(), func() { c.start("restart") })
	if s.cfg.Faults.Tuning.LeaseTTL <= 0 {
		s.head.SiteLost(c.model.Site, errCrashed)
		s.afterFailure()
	}
}

// reset ends the cluster's incarnation: the volatile state — queued jobs,
// buffered chunks, in-flight transfers, busy cores, reduction objects —
// dies with it, and the epoch bump makes every callback the old
// incarnation scheduled a no-op.
func (c *mqCluster) reset() {
	c.epoch++
	c.queue = nil
	c.ready = nil
	c.inFlight = 0
	c.busyCores = 0
	c.freeAll()
	c.requesting = false
	c.exhausted = false
	c.checkpointing = false
	c.partitioned = false
	c.slowFactor = 1
	c.waits = 0
	c.deferred = nil
	c.specs = c.specs[:0]
	c.core.Reset()
}

// failed acts on an error answer from the head. A fenced answer to any call
// ends the incarnation: the agent forgets every query and registers again.
// Any other error ends the run.
func (c *mqCluster) failed(err error) {
	if !fault.IsFenced(err) {
		c.s.err = err
		return
	}
	c.reset()
	c.start("fenced")
}

// afterFailure reconciles the simulator with what a head-side failure (a
// lease expiry, a lost session, a re-registration) did: passes the failure
// completed finish, a draining site the failure removed has left, and idle
// masters poll again if reissued or requeued work needs them.
func (s *multiSim) afterFailure() {
	s.settle()
	for _, c := range s.clusters {
		if c.draining && !c.gone && c.drainCh != nil {
			select {
			case <-c.drainCh:
				c.depart()
			default:
			}
		}
	}
	if s.allDrained() {
		return
	}
	for _, c := range s.clusters {
		if c.exhausted {
			c.exhausted = false
			c.poll()
		}
	}
}

// partition cuts the cluster off from the head and the storage sites until
// the matching Recover event. Chunks already buffered keep processing;
// completions are deferred, and heartbeats stop reaching the head.
func (s *multiSim) partition(c *mqCluster) {
	if !c.live() || c.partitioned {
		return
	}
	c.partitioned = true
	s.fstats.Partitions++
	if s.tr.Enabled() {
		s.tr.InstantAt(c.pid(), 0, "fault", "partition", s.clock.Now(), nil)
	}
}

// recoverCluster ends an active slowdown and/or partition. A healed
// partition flushes the deferred completions — the head deduplicates any it
// re-assigned meanwhile, or fences the lot if the lease lapsed — and
// resumes.
func (s *multiSim) recoverCluster(c *mqCluster) {
	if c.down || c.gone {
		return
	}
	c.slowFactor = 1
	if !c.partitioned {
		return
	}
	c.partitioned = false
	n, epoch := len(c.deferred), c.epoch
	if c.flush(); c.epoch != epoch {
		return // fenced: the agent re-registered
	}
	if s.tr.Enabled() {
		s.tr.InstantAt(c.pid(), 0, "fault", "partition-healed", s.clock.Now(),
			obs.Args{"flushed": n})
	}
	c.poll()
	c.kickRetrievers()
	c.kickCores()
}

// flush commits the completions the agent held back, in order; it stops
// early if a commit is fenced (the agent has re-registered) or starts a
// wait on the head (the answer flushes the rest).
func (c *mqCluster) flush() {
	epoch := c.epoch
	for len(c.deferred) > 0 && c.waits == 0 {
		mj := c.deferred[0]
		c.deferred = c.deferred[1:]
		if c.commit(mj); c.epoch != epoch {
			return
		}
	}
}

// checkpoint models the live agent's checkpoint of head query id (query
// qi), due at the commit that completes the cadence: the cores quiesce while
// the object is merged, and then the agent ships it and waits on the head
// for the answer. The covered jobs become durable only when the head accepts
// the CheckpointSave — a crash mid-ship loses the checkpoint, not jobs.
func (c *mqCluster) checkpoint(qi, id int) {
	s := c.s
	save, n := c.core.Checkpoint(id, encodeCredit(c.core.Credit(id)))
	if n == 0 {
		return
	}
	app := s.cfg.Queries[qi].App
	c.checkpointing = true
	c.waits++
	epoch := c.epoch
	start := s.clock.Now()
	s.clock.After(app.mergeTime(), func() {
		if c.epoch != epoch {
			return
		}
		c.checkpointing = false
		c.kickCores()
		s.net.Start(app.RobjBytes, s.robjLatency(c), 0, s.robjResources(c), func() {
			if c.epoch != epoch {
				return // died with the incarnation
			}
			if err := s.head.CheckpointSave(save); fault.IsFenced(err) {
				c.failed(err)
				return
			} else if err == nil { // or refused: a stale seq, a finished pass
				c.core.Landed(id, n)
				s.fstats.Checkpoints++
				s.fstats.CheckpointBytes += app.RobjBytes
				if s.tr.Enabled() {
					s.tr.Complete(c.pid(), 0, "fault", "checkpoint", start, s.clock.Now(),
						obs.Args{"query": qi, "seq": save.Seq, "jobs": n, "bytes": app.RobjBytes})
				}
			}
			c.answered()
		})
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

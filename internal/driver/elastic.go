package driver

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/elastic"
	"repro/internal/obs"
)

// finalDrainGrace bounds the wait for burst workers to depart at session
// close, when the arbiter config sets no ScaleDownDrainTimeout. A healthy
// worker settles within two polls; a wedged one is declared failed so the
// session can close.
const finalDrainGrace = 30 * time.Second

// allocBurstSite hands out the next burst-worker site ID. IDs grow
// monotonically across the session and are never reused, so a zombie
// incarnation of a departed worker can never collide with a live one.
func (s *Session) allocBurstSite() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	site := s.nextBurstSite
	s.nextBurstSite++
	return site
}

// runArbiter is the session's one elasticity executor: every tick it
// snapshots each active query's remaining work from the head (with weight
// and policy) and feeds the aggregate to the arbiter, then acts on the one
// fleet-sizing decision — launching burst workers through the deployment's
// Launcher and draining them through the head's graceful decommission. The
// shared fleet serves every admitted query at once (the head's fair share
// splits the grants); the loop runs for the whole session and exits via
// arbStop after the head has shut down, decommissioning whatever is left.
func (s *Session) runArbiter() {
	defer close(s.arbDone)
	d := s.dep
	reg := d.Obs.Metrics()
	tr := d.Obs.Trace()
	cfg := s.arb.Config()
	gFleet := reg.Gauge("elastic_workers")
	cUp := reg.Counter("elastic_scale_events_total", "dir", "up")
	cDown := reg.Counter("elastic_scale_events_total", "dir", "down")
	gCost := reg.FloatGauge("elastic_cost_dollars")

	clk := d.Obs.ClockOrWall()
	start := clk.Now()
	since := func() time.Duration { return clk.Now() - start }

	ticker := time.NewTicker(cfg.EffectiveInterval())
	defer ticker.Stop()
	workers := make(map[int]*cluster.Worker)

	settle := func() {
		gCost.Set(s.arb.InstanceCost(since()))
		for id, c := range s.arb.CostByQuery() {
			reg.FloatGauge("elastic_cost_dollars", "query", strconv.Itoa(id)).Set(c)
		}
	}
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-s.arbStop:
			s.finishArbiter(workers, cfg, since)
			gFleet.Set(0)
			settle()
			return
		case <-ticker.C:
		}
		dec := s.arb.Step(since(), s.h.QueryLoads())
		switch dec.Action {
		case elastic.ScaleUp:
			for i := 0; i < dec.Delta; i++ {
				site := s.allocBurstSite()
				name := fmt.Sprintf("burst-%d", site)
				w, err := s.launcher.Launch(s.ctx, site, name)
				if err != nil {
					s.logf("driver: elastic launch of %s failed: %v", name, err)
					continue
				}
				s.arb.WorkerLaunched(since(), site)
				workers[site] = w
				cUp.Inc()
				reg.Gauge("elastic_workers", "cluster", name).Set(1)
				s.logf("driver: elastic scale-up: launched %s (%s)", name, dec.Reason)
				if tr.Enabled() {
					tr.Instant(0, 0, "elastic", fmt.Sprintf("scale-up site %d", site),
						obs.Args{"site": site})
				}
				go s.watchWorker(w, clk, start)
			}
		case elastic.ScaleDown:
			for _, site := range dec.Sites {
				s.logf("driver: elastic scale-down: draining site %d (%s)", site, dec.Reason)
				s.drainBurstWorker(site, cfg.ScaleDownDrainTimeout, since)
				cDown.Inc()
			}
		}
		gFleet.Set(int64(dec.Workers))
		settle()
	}
}

// watchWorker ends a burst worker's billing episode when its agent loop
// returns, and reports a crash to the head so the site's work is recovered.
func (s *Session) watchWorker(w *cluster.Worker, clk obs.Clock, start time.Duration) {
	<-w.Done()
	s.arb.WorkerStopped(clk.Now()-start, w.Site())
	s.dep.Obs.Metrics().Gauge("elastic_workers",
		"cluster", fmt.Sprintf("burst-%d", w.Site())).Set(0)
	if err := w.Err(); err != nil && !errors.Is(err, context.Canceled) {
		s.logf("driver: burst worker %d failed: %v", w.Site(), err)
		s.h.SiteLost(w.Site(), err)
	}
}

// drainBurstWorker starts a graceful drain and escalates to FailSite if it
// outlives timeout (requeue + reissue then recover the work; requires the
// deployment's fault machinery). The worker's billing episode ends when the
// departure completes.
func (s *Session) drainBurstWorker(site int, timeout time.Duration, since func() time.Duration) {
	ch, err := s.h.DrainSite(site)
	if err != nil {
		s.logf("driver: drain of site %d: %v", site, err)
		return
	}
	go func() {
		if timeout > 0 {
			t := time.NewTimer(timeout)
			defer t.Stop()
			select {
			case <-ch:
			case <-s.ctx.Done():
				return
			case <-t.C:
				s.logf("driver: drain of site %d exceeded %v; declaring it failed", site, timeout)
				s.h.FailSite(site)
			}
		}
		select {
		case <-ch:
			s.arb.WorkerStopped(since(), site)
		case <-s.ctx.Done():
		}
	}()
}

// finishArbiter decommissions every remaining burst worker at session close:
// each is drained (the head has shut down, so nothing is owed) unless it has
// already left on the shutdown notice, and one that does neither within the
// configured drain timeout (or finalDrainGrace) is declared failed so session
// close cannot hang.
func (s *Session) finishArbiter(workers map[int]*cluster.Worker,
	cfg elastic.ArbiterConfig, since func() time.Duration) {
	grace := cfg.ScaleDownDrainTimeout
	if grace <= 0 {
		grace = finalDrainGrace
	}
	type pending struct {
		site int
		ch   <-chan struct{}
	}
	var waits []pending
	for site := range workers {
		ch, err := s.h.DrainSite(site)
		if err != nil {
			continue // already departed (or failed away)
		}
		waits = append(waits, pending{site: site, ch: ch})
	}
	deadline := time.NewTimer(grace)
	defer deadline.Stop()
	for _, p := range waits {
		select {
		case <-p.ch:
			s.arb.WorkerStopped(since(), p.site)
		case <-workers[p.site].Done():
			// The head's Shutdown notice reached the worker (its poll is held
			// at the head, so at once) before this drain order did: it has
			// left and will never poll for the Drain reply.
			s.arb.WorkerStopped(since(), p.site)
		case <-s.ctx.Done():
			return
		case <-deadline.C:
			deadline.Reset(0) // the grace is spent for every worker still pending
			s.logf("driver: burst worker %d did not drain at session close; declaring it failed", p.site)
			s.h.FailSite(p.site)
			select {
			case <-p.ch:
				s.arb.WorkerStopped(since(), p.site)
			case <-s.ctx.Done():
				return
			case <-time.After(time.Second):
			}
		}
	}
	// Join the agent goroutines so Close cannot race their final polls, and
	// zero each per-cluster gauge here rather than leaving it to the async
	// watchWorker goroutine — a scrape right after close must see 0.
	for site, w := range workers {
		select {
		case <-w.Done():
			s.dep.Obs.Metrics().Gauge("elastic_workers",
				"cluster", fmt.Sprintf("burst-%d", site)).Set(0)
		case <-s.ctx.Done():
			return
		case <-time.After(grace):
			return
		}
	}
}

package driver

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/elastic"
	"repro/internal/head"
	"repro/internal/obs"
)

// finalDrainGrace bounds the wait for launched burst workers to depart at
// close, when the arbiter config sets no ScaleDownDrainTimeout. A healthy
// worker settles within two polls; a wedged one is declared failed so close
// cannot hang.
const finalDrainGrace = 30 * time.Second

// BurstLoop is the one live executor of an elastic.Arbiter: every arbiter
// interval it reconciles the burst fleet with the head's membership, steps
// the arbiter over the head's query loads, and acts on the decision —
// launching workers through a cluster.Launcher (or, without one, logging
// how many an operator should start) and draining surplus sites through the
// head's graceful decommission. driver.Session and cmd/headnode both run it.
//
// Billing follows one rule: a burst site's episode opens at its successful
// launch or at the first sighting of an unlaunched site at or above
// head.BurstSiteBase in Head.Sites, and closes when a site that was seen
// leaves that membership (a completed drain, or FailSite fencing it).
type BurstLoop struct {
	h    *head.Head
	arb  *elastic.Arbiter
	l    cluster.Launcher
	logf func(string, ...any)
	reg  *obs.Registry
	tr   *obs.Tracer
	clk  obs.Clock

	start  time.Duration
	ctx    context.Context // launched workers' lifetime
	cancel context.CancelFunc
	stop   chan struct{}
	done   chan struct{}

	mu       sync.Mutex
	nextSite int
	workers  []*cluster.Worker     // launched
	open     map[int]bool          // site → seen in membership, per open episode
	draining map[int]time.Duration // site → when its drain was ordered
}

// StartBurstLoop starts ticking arb over h on the arbiter's interval. With
// l nil the loop only advises: a scale-up is one log line and no site is
// launched. Close stops it.
func StartBurstLoop(h *head.Head, arb *elastic.Arbiter, l cluster.Launcher,
	o *obs.Obs, logf func(string, ...any)) *BurstLoop {
	b := &BurstLoop{
		h: h, arb: arb, l: l, logf: logf,
		reg: o.Metrics(), tr: o.Trace(), clk: o.ClockOrWall(),
		stop: make(chan struct{}), done: make(chan struct{}),
		nextSite: head.BurstSiteBase,
		open:     make(map[int]bool),
		draining: make(map[int]time.Duration),
	}
	b.start = b.clk.Now()
	b.ctx, b.cancel = context.WithCancel(context.Background())
	go b.run(arb.Config().EffectiveInterval())
	return b
}

func (b *BurstLoop) now() time.Duration { return b.clk.Now() - b.start }

func (b *BurstLoop) run(interval time.Duration) {
	defer close(b.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-t.C:
			b.tick(b.now())
		}
	}
}

// tick is one whole arbiter step at loop time now.
func (b *BurstLoop) tick(now time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	// 1. Reconcile billing episodes with the head's membership.
	members := make(map[int]bool)
	for _, site := range b.h.Sites() {
		if site < head.BurstSiteBase {
			continue
		}
		members[site] = true
		if _, ok := b.open[site]; !ok {
			b.openLocked(now, site)
			b.logf("elastic worker registered at site %d", site)
		}
		b.open[site] = true
	}
	for site, seen := range b.open {
		if seen && !members[site] {
			b.closeLocked(now, site)
		}
	}
	// 2. A drain that outlived its timeout is declared failed: requeue and
	// reissue recover its work, and the fenced site leaves membership.
	if timeout := b.arb.Config().ScaleDownDrainTimeout; timeout > 0 {
		for site, at := range b.draining {
			if now-at > timeout {
				b.logf("elastic drain of site %d exceeded %v; declaring it failed", site, timeout)
				delete(b.draining, site)
				b.h.FailSite(site)
			}
		}
	}
	// 3. Step the arbiter and act on its decision.
	dec := b.arb.Step(now, b.h.QueryLoads())
	switch dec.Action {
	case elastic.ScaleUp:
		if b.l == nil {
			b.logf("elastic advisory: launch %d more worker(s) — %s", dec.Delta, dec.Reason)
		}
		for i := 0; b.l != nil && i < dec.Delta; i++ {
			b.launchLocked(now, dec.Reason)
		}
	case elastic.ScaleDown:
		for _, site := range dec.Sites {
			if _, err := b.h.DrainSite(site); err != nil {
				b.logf("elastic drain of site %d: %v", site, err)
				continue
			}
			b.draining[site] = now
			b.reg.Counter("elastic_scale_events_total", "dir", "down").Inc()
			b.logf("elastic scale-down: draining site %d — %s", site, dec.Reason)
		}
	}
	// 4. Gauges: the fleet actually running, not the one an advisory asked for.
	b.reg.Gauge("elastic_workers").Set(int64(len(b.arb.ActiveSites())))
	b.settleLocked(now)
}

// launchLocked starts one burst worker at the next site ID and watches it.
func (b *BurstLoop) launchLocked(now time.Duration, reason string) {
	site := b.nextSite
	b.nextSite++
	name := fmt.Sprintf("burst-%d", site)
	w, err := b.l.Launch(b.ctx, site, name)
	if err != nil {
		b.logf("elastic launch of %s failed: %v", name, err)
		return
	}
	b.workers = append(b.workers, w)
	b.openLocked(now, site)
	b.logf("elastic scale-up: launched %s (%s)", name, reason)
	go b.watch(w)
}

// watch waits out a launched worker's agent loop: an error exit is reported
// to the head so the site's work is recovered, and a worker that exits
// before the loop ever saw it registered has its episode closed here, as
// membership never will.
func (b *BurstLoop) watch(w *cluster.Worker) {
	<-w.Done()
	if err := w.Err(); err != nil && !errors.Is(err, context.Canceled) {
		b.logf("burst worker %d failed: %v", w.Site(), err)
		b.h.SiteLost(w.Site(), err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if seen, ok := b.open[w.Site()]; ok && !seen {
		b.closeLocked(b.now(), w.Site())
	}
}

// openLocked starts site's billing episode.
func (b *BurstLoop) openLocked(now time.Duration, site int) {
	b.arb.WorkerLaunched(now, site)
	b.open[site] = false
	b.reg.Counter("elastic_scale_events_total", "dir", "up").Inc()
	b.reg.Gauge("elastic_workers", "cluster", fmt.Sprintf("burst-%d", site)).Set(1)
	if b.tr.Enabled() {
		b.tr.Instant(0, 0, "elastic", fmt.Sprintf("scale-up site %d", site), obs.Args{"site": site})
	}
}

// closeLocked ends site's billing episode.
func (b *BurstLoop) closeLocked(now time.Duration, site int) {
	b.arb.WorkerStopped(now, site)
	delete(b.open, site)
	delete(b.draining, site)
	b.reg.Gauge("elastic_workers", "cluster", fmt.Sprintf("burst-%d", site)).Set(0)
}

func (b *BurstLoop) settleLocked(now time.Duration) {
	b.reg.FloatGauge("elastic_cost_dollars").Set(b.arb.InstanceCost(now))
	for id, c := range b.arb.CostByQuery() {
		b.reg.FloatGauge("elastic_cost_dollars", "query", strconv.Itoa(id)).Set(c)
	}
}

// Close stops the ticker and decommissions the fleet: every launched worker
// is drained (the head has normally shut down, so nothing is owed) unless it
// already left on the head's Shutdown notice, and one still running after
// the drain timeout (or finalDrainGrace) is declared failed. Every
// still-open episode ends at close time and the gauges settle.
func (b *BurstLoop) Close() {
	close(b.stop)
	<-b.done // no tick runs from here on; only watch goroutines share state
	grace := b.arb.Config().ScaleDownDrainTimeout
	if grace <= 0 {
		grace = finalDrainGrace
	}
	for _, w := range b.workers {
		_, _ = b.h.DrainSite(w.Site()) // an error means it already left
	}
	deadline := time.NewTimer(grace)
	defer deadline.Stop()
	for _, w := range b.workers {
		select {
		case <-w.Done():
		case <-deadline.C:
			deadline.Reset(0) // the grace is spent for every worker still running
			b.logf("burst worker %d did not drain at close; declaring it failed", w.Site())
			b.h.FailSite(w.Site())
		}
	}
	b.cancel()

	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	for site := range b.open {
		b.closeLocked(now, site)
	}
	b.reg.Gauge("elastic_workers").Set(0)
	b.settleLocked(now)
}

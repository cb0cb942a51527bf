package hybridsim

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/head"
	"repro/internal/obs"
)

// ElasticDecision is what the elasticity hook asks the simulator to do on
// one tick: launch Add new burst-worker clusters and/or gracefully drain
// the listed worker sites.
type ElasticDecision struct {
	Add   int
	Drain []int
}

// ElasticSim adds mid-run cluster add/remove to a multi-query simulation.
// The hooks are deliberately generic — plain funcs over (now, the head's
// per-query loads, worker sites) — so the policy lives outside this package
// (the elastic.Arbiter binds itself via Arbiter.SimElastic) and hybridsim
// stays free of a dependency cycle through the estimator.
//
// Every Interval of virtual time, the simulator takes its head's QueryLoads
// (each query's remaining work keyed by hosting site, with its fair-share
// weight and policy, numbered by its index in MultiConfig.Queries), and the
// active burst-worker sites, and calls Decide. Added workers are fresh
// clusters built from the Worker template with unique monotonically
// increasing site IDs (WorkerSiteBase + launch sequence — never reused, the
// same convention the live head's dynamic admission uses); they host no
// data, so every job they run is stolen work. A drained worker is drained
// at the head (head.DrainSite): it is granted nothing more, finishes what it
// already holds, submits its reduction objects, and leaves when the head
// answers Drain — the simulator fires OnDrained then.
type ElasticSim struct {
	// Interval is the arbiter tick period on the virtual clock.
	Interval time.Duration
	// Decide is consulted every tick. The remaining work arrives split by
	// query (with fair-share weights and policies) so the session-wide
	// arbiter can weigh each query's policy against its share of the fleet;
	// a query between two passes is listed with nothing remaining. workers
	// lists active (non-draining) burst sites in launch order.
	Decide func(now time.Duration, loads []head.QueryLoad, workers []int) ElasticDecision
	// Worker is the cluster-model template for one burst worker; Site and
	// Name are overridden per launch.
	Worker ClusterModel
	// WorkerSiteBase is the first burst site ID (default 1000).
	WorkerSiteBase int
	// WorkerPaths maps each data site to the path model new workers use to
	// reach it.
	WorkerPaths map[int]PathModel
	// LaunchDelay models instance boot time: a launched worker appears in
	// the Decide hook's worker list immediately (so the policy never
	// double-provisions) and is billed from the launch instant (OnLaunch
	// fires at request time, like a cloud provider does), but it only
	// starts polling for work LaunchDelay later.
	LaunchDelay time.Duration
	// OnLaunch and OnDrained report lifecycle events on the virtual clock —
	// the arbiter's billing hooks.
	OnLaunch  func(now time.Duration, site int)
	OnDrained func(now time.Duration, site int)
}

func (e *ElasticSim) siteBase() int {
	if e.WorkerSiteBase > 0 {
		return e.WorkerSiteBase
	}
	return 1000
}

func (e *ElasticSim) interval() time.Duration {
	if e.Interval > 0 {
		return e.Interval
	}
	return 2 * time.Second
}

// elasticTick runs one arbiter tick and reschedules itself until every
// query has finished.
func (s *multiSim) elasticTick() {
	if s.err != nil || s.finished >= len(s.cfg.Queries) {
		return
	}
	e := s.cfg.Elastic
	now := s.clock.Now()
	var workers []int
	for _, c := range s.clusters {
		if c.burst && !c.draining && !c.gone {
			workers = append(workers, c.model.Site)
		}
	}
	loads := s.head.QueryLoads()
	for i := range loads {
		loads[i].Query = s.byID[loads[i].Query]
	}
	// A drained pool with a pass still to come is a pass boundary, not a
	// finished query: keep it in the loads (with nothing remaining) so the
	// arbiter holds the fleet and the deadline anchor across it.
	for qi, pool := range s.pools {
		if s.queryHasMorePasses(qi) && pool.Drained() {
			loads = append(loads, head.QueryLoad{Query: qi, Weight: max(s.cfg.Queries[qi].Weight, 1),
				Policy: s.passes[qi].Policy(), Remaining: pool.RemainingBytesBySite()})
		}
	}
	sort.Slice(loads, func(i, j int) bool { return loads[i].Query < loads[j].Query })
	dec := e.Decide(now, loads, workers)
	for i := 0; i < dec.Add; i++ {
		s.addWorker()
	}
	drain := append([]int(nil), dec.Drain...)
	sort.Ints(drain)
	for _, site := range drain {
		s.drainWorker(site)
	}
	s.clock.After(e.interval(), func() { s.elasticTick() })
}

// addWorker appends one burst-worker cluster mid-run and starts its master
// loop.
func (s *multiSim) addWorker() {
	e := s.cfg.Elastic
	cm := e.Worker
	site := e.siteBase() + s.workerSeq
	s.workerSeq++
	cm.Site = site
	cm.Name = fmt.Sprintf("burst-%d", site)
	if cm.Cores <= 0 {
		cm.Cores = 1
	}
	// Wire the worker's network paths to every data site (the topology's
	// Paths map was cloned at startup when elasticity is on, so the caller's
	// map is never mutated).
	keys := make([]int, 0, len(e.WorkerPaths))
	for dataSite := range e.WorkerPaths {
		keys = append(keys, dataSite)
	}
	sort.Ints(keys)
	for _, dataSite := range keys {
		pm := e.WorkerPaths[dataSite]
		key := [2]int{len(s.clusters), dataSite}
		s.cfg.Topology.Paths[key] = pm
		s.paths[key] = &Resource{Name: fmt.Sprintf("path-c%d-s%d", key[0], key[1]), Capacity: pm.Bandwidth}
	}
	c := s.addCluster(cm)
	c.burst = true
	c.launched = s.clock.Now()
	if s.tr.Enabled() {
		s.tr.InstantAt(0, 0, "elastic", fmt.Sprintf("scale-up site %d", site), s.clock.Now(),
			obs.Args{"site": site, "cluster": c.index})
	}
	if e.OnLaunch != nil {
		e.OnLaunch(s.clock.Now(), site)
	}
	if e.LaunchDelay > 0 {
		s.clock.After(e.LaunchDelay, func() { c.start("") })
		return
	}
	c.start("")
}

// drainWorker drains the burst worker at site through the head. A worker
// still booting has nothing to hand back and leaves at once.
func (s *multiSim) drainWorker(site int) {
	for _, c := range s.clusters {
		if !c.burst || c.model.Site != site || c.draining || c.gone {
			continue
		}
		c.draining = true
		if !c.registered {
			c.depart()
			return
		}
		ch, err := s.head.DrainSite(site)
		if err != nil {
			s.err = err
			return
		}
		c.drainCh = ch
		if c.reachable() {
			c.exhausted = false
			c.poll() // the drain wakes the worker's parked poll
		}
		return
	}
}

// depart completes the worker's drain: it leaves the fleet.
func (c *mqCluster) depart() {
	s := c.s
	if c.gone {
		return
	}
	c.gone = true
	c.drainedAt = s.clock.Now()
	if s.tr.Enabled() {
		s.tr.InstantAt(0, 0, "elastic", fmt.Sprintf("drain site %d", c.model.Site), s.clock.Now(),
			obs.Args{"site": c.model.Site, "cluster": c.index})
	}
	if e := s.cfg.Elastic; e != nil && e.OnDrained != nil {
		e.OnDrained(s.clock.Now(), c.model.Site)
	}
}

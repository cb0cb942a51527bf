package hybridsim

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// ElasticDecision is what the elasticity hook asks the simulator to do on
// one tick: launch Add new burst-worker clusters and/or gracefully drain
// the listed worker sites.
type ElasticDecision struct {
	Add   int
	Drain []int
}

// ElasticLoad is one query's share of the remaining work, as the elasticity
// hook sees it: the query's index in MultiConfig.Queries, its fair-share
// weight (defaulted to 1 like the scheduler does), and its uncommitted bytes
// keyed by hosting site. A query appears in a tick's load slice while it has
// uncommitted bytes or another pass to run — between the passes of an
// iterative query Remaining is empty, never the query absent.
type ElasticLoad struct {
	Query     int
	Weight    int
	Remaining map[int]int64
}

// ElasticSim adds mid-run cluster add/remove to a multi-query simulation.
// The hooks are deliberately generic — plain funcs over (now, per-query
// remaining bytes, worker sites) — so the policy lives outside this package
// (the elastic.Arbiter binds itself via Arbiter.SimElastic) and hybridsim
// stays free of a dependency cycle through the estimator.
//
// Every Interval of virtual time, the simulator snapshots each unfinished
// query's remaining work (keyed by hosting site, with its fair-share weight)
// and the active burst-worker sites, and calls Decide. Added workers are fresh
// clusters built from the Worker template with unique monotonically
// increasing site IDs (WorkerSiteBase + launch sequence — never reused, the
// same convention the live head's dynamic admission uses); they host no
// data, so every job they run is stolen work. Drained workers stop
// requesting jobs, finish what they already hold, and then leave; the
// simulator fires OnDrained when the last held job completes, mirroring the
// live drain protocol (stop granting → leases lapse → final fold).
type ElasticSim struct {
	// Interval is the arbiter tick period on the virtual clock.
	Interval time.Duration
	// Decide is consulted every tick. The remaining work arrives split by
	// query (with fair-share weights) so the session-wide arbiter can weigh
	// each query's policy against its share of the fleet; workers lists
	// active (non-draining) burst sites in launch order.
	Decide func(now time.Duration, loads []ElasticLoad, workers []int) ElasticDecision
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
	var loads []ElasticLoad
	for qi, pool := range s.pools {
		rem := pool.RemainingBytesBySite()
		var total int64
		for _, b := range rem {
			total += b
		}
		// A drained pool with a pass still to come is a pass boundary, not a
		// finished query: keep it in the loads (with nothing remaining) so the
		// arbiter holds the fleet and the deadline anchor across it.
		if total <= 0 && !s.queryHasMorePasses(qi) {
			continue
		}
		w := s.cfg.Queries[qi].Weight
		if w < 1 {
			w = 1
		}
		loads = append(loads, ElasticLoad{Query: qi, Weight: w, Remaining: rem})
	}
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
	if cm.CoreSpeed <= 0 {
		cm.CoreSpeed = 1
	}
	if cm.RetrievalThreads <= 0 {
		cm.RetrievalThreads = 2
	}
	if cm.QueueDepth <= 0 {
		cm.QueueDepth = 2 * cm.Cores
	}
	c := &mqCluster{s: s, model: cm, index: len(s.clusters), burst: true,
		launched: s.clock.Now(), slowFactor: 1, jobsByQuery: make(map[int]stats.JobAccounting),
		bytesBySite: make(map[int]int64)}
	for lane := cm.RetrievalThreads; lane >= 1; lane-- {
		c.freeLanes = append(c.freeLanes, lane)
	}
	for id := 0; id < cm.Cores; id++ {
		c.idleCores = append(c.idleCores, id)
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
		key := [2]int{c.index, dataSite}
		s.cfg.Topology.Paths[key] = pm
		s.paths[key] = &Resource{Name: fmt.Sprintf("path-c%d-s%d", key[0], key[1]), Capacity: pm.Bandwidth}
	}
	s.clusters = append(s.clusters, c)
	s.tr.NameProcess(c.pid(), fmt.Sprintf("cluster %s (site %d)", cm.Name, cm.Site))
	s.tr.NameThread(c.pid(), 0, "master")
	for lane := 1; lane <= cm.RetrievalThreads; lane++ {
		s.tr.NameThread(c.pid(), lane, fmt.Sprintf("retr-%d", lane))
	}
	for id := 0; id < cm.Cores; id++ {
		s.tr.NameThread(c.pid(), c.coreTid(id), fmt.Sprintf("core-%d", id))
	}
	if s.tr.Enabled() {
		s.tr.InstantAt(0, 0, "elastic", fmt.Sprintf("scale-up site %d", site), s.clock.Now(),
			obs.Args{"site": site, "cluster": c.index})
	}
	if e.OnLaunch != nil {
		e.OnLaunch(s.clock.Now(), site)
	}
	if e.LaunchDelay > 0 {
		s.clock.After(e.LaunchDelay, func() { c.poll() })
		return
	}
	c.poll()
}

// drainWorker marks the burst worker at site draining: it stops requesting
// new jobs and leaves once everything it already holds has been processed.
func (s *multiSim) drainWorker(site int) {
	for _, c := range s.clusters {
		if c.burst && c.model.Site == site && !c.draining && !c.gone {
			c.draining = true
			s.maybeDrained(c)
			return
		}
	}
}

// maybeDrained completes a drain once the worker holds no more work.
func (s *multiSim) maybeDrained(c *mqCluster) {
	if !c.draining || c.gone {
		return
	}
	if len(c.queue) > 0 || c.inFlight > 0 || len(c.ready) > 0 || c.busyCores > 0 || c.requesting {
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

package hybridsim

import (
	"fmt"
	"time"

	"repro/internal/chunk"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// MultiQuery is one concurrent query in a multi-query simulation: its own
// dataset view, placement, pool policy, application cost shape and
// fair-share weight — mirroring head.QueryConfig.
type MultiQuery struct {
	Name      string
	App       AppModel
	Index     *chunk.Index
	Placement jobs.Placement
	PoolOpts  jobs.Options
	// Weight is the query's fair-share weight (default 1).
	Weight int
	// Iterations makes the query re-read its whole dataset that many times
	// (iterative Generalized Reduction: kmeans, pagerank). Each pass drains
	// the pool, performs its own global reduction, then the pool is rebuilt
	// for the next pass. ≤1 means a single pass.
	Iterations int
}

// MultiConfig is a simulated multi-query experiment: N queries admitted at
// t=0 over one shared deployment, with the head handing out jobs by the same
// weighted stride scheduler the live head uses (jobs.FairShare). The
// single-query simulator (Run) is untouched; this is a separate machine
// sharing the Network/Resource substrate.
type MultiConfig struct {
	Queries  []MultiQuery
	Topology Topology
	// RequestBatch is the job-group size masters request per poll; defaults
	// to max(RetrievalThreads/2, 4) per cluster, like the live master.
	RequestBatch int
	// Seed drives the deterministic jitter stream.
	Seed uint64
	// Obs attaches observability. A non-nil tracer produces the same merged
	// multi-site trace shape the live head emits — head-side grant spans on
	// pid 0, per-cluster retrieval and processing spans on pid i+1, every
	// span carrying the owning query's trace id (query+1) — but on virtual
	// time, so live and simulated runs are visually comparable side by side.
	Obs *obs.Obs
	// Elastic, when non-nil, enables mid-run cluster add/remove driven by
	// the Decide hook on the virtual clock (see ElasticSim).
	Elastic *ElasticSim
	// Slowdowns injects unanticipated mid-run degradation. The elasticity
	// experiments use these as the perturbation a static, pre-sized
	// provisioning plan cannot absorb.
	Slowdowns []MultiSlowdown
}

// MultiSlowdown is one injected mid-run degradation. A compute slowdown
// (Source false) makes cluster Cluster (an index into Topology.Clusters)
// process at 1/Factor of its modelled rate from At on. A source slowdown
// (Source true) divides storage site Site's egress capacity by Factor — a
// degraded disk array or an overloaded store, which is what bites
// retrieval-bound applications.
type MultiSlowdown struct {
	At      time.Duration
	Cluster int
	Factor  float64
	Source  bool
	Site    int
}

// QueryResult reports one query's simulated outcome.
type QueryResult struct {
	Name string
	// Finish is when the head merged the query's last reduction object.
	Finish time.Duration
	// IterFinish records when each pass's global reduction completed; only
	// populated when the query runs more than one iteration (the last entry
	// equals Finish).
	IterFinish []time.Duration
	// Granted counts jobs handed to masters for this query.
	Granted int
	// Jobs is the per-cluster accounting, indexed like Topology.Clusters.
	Jobs []stats.JobAccounting
}

// MultiResult reports the whole multi-query experiment.
type MultiResult struct {
	// Total is the virtual makespan: until the last query's final merge
	// plus the Finished broadcast.
	Total time.Duration
	// Queries holds per-query results in MultiConfig order.
	Queries []QueryResult
	// Seeks counts non-sequential fetches across all sites.
	Seeks int
	// Clusters describes every cluster that took part — the static ones in
	// Topology order followed by burst workers in launch order — with the
	// realized usage cost accounting needs.
	Clusters []MultiClusterResult
	// Stage reports the burst-side replica's realized behavior; nil when
	// Topology.Stage is unset.
	Stage *StageStats
}

// MultiClusterResult is one cluster's realized footprint over the run.
type MultiClusterResult struct {
	Name  string
	Site  int
	Cores int
	// Burst marks a worker added mid-run by the elasticity hook.
	Burst bool
	// Launched and Drained bound a burst worker's lifetime on the virtual
	// clock; Drained is 0 when the worker ran to the end of the simulation.
	Launched time.Duration
	Drained  time.Duration
	// Jobs totals the cluster's work across all queries.
	Jobs stats.JobAccounting
	// BytesBySite counts bytes the cluster retrieved from each hosting site.
	BytesBySite map[int]int64
	// StageReadBytes counts bytes this cluster read from the burst-side
	// replica instead of an origin site (excluded from BytesBySite so
	// transfer-cost accounting never double-charges a cached read).
	StageReadBytes int64
}

// mqChunk is one retrieved-but-unprocessed chunk, tagged with its query.
type mqChunk struct {
	tg    jobs.Tagged
	bytes int64
}

// mqCluster is one cluster's agent in the multi-query simulation: a single
// master/poll loop interleaving every query's jobs, like cluster.RunAgent.
type mqCluster struct {
	s     *multiSim
	model ClusterModel
	index int

	queue      []jobs.Tagged
	requesting bool
	exhausted  bool

	// burst workers are added mid-run by the elasticity hook; draining ones
	// stop requesting, finish what they hold, then are gone.
	burst     bool
	draining  bool
	gone      bool
	launched  time.Duration
	drainedAt time.Duration

	// slowFactor divides the compute rate once a MultiSlowdown lands.
	slowFactor float64

	freeLanes []int
	inFlight  int
	ready     []mqChunk
	idleCores []int
	busyCores int

	jobsByQuery    map[int]stats.JobAccounting
	bytesBySite    map[int]int64
	stageReadBytes int64
}

type multiSim struct {
	cfg      MultiConfig
	clock    *simtime.Clock
	net      *Network
	fair     *jobs.FairShare
	pools    []*jobs.Pool
	clusters []*mqCluster
	egress   map[int]*Resource
	paths    map[[2]int]*Resource
	interRes *Resource

	nextSeq  map[int]int
	lastFile map[int]int
	seeks    int

	workerSeq int // burst workers launched so far

	granted    []int
	drained    []bool
	reducing   []bool // a pass's global reduction is in flight
	iter       []int  // completed passes, per query
	iterFinish [][]time.Duration
	expect     []int // reduction objects the head still awaits, per query
	finish     []time.Duration
	headBusyAt time.Duration
	finished   int
	err        error

	stage *stageState

	tr *obs.Tracer
}

// Trace layout mirrors the live merged trace: pid 0 is the head, pid i+1 is
// cluster i; within a cluster tid 0 is the master, 1..R the retrieval lanes
// and R+1..R+cores the processing cores.
func (c *mqCluster) pid() int { return c.index + 1 }
func (c *mqCluster) coreTid(id int) int {
	return 1 + c.model.RetrievalThreads + id
}

// mqTraceID is the deterministic per-query trace id, matching the live
// head's convention (query+1; 0 stays "no trace").
func mqTraceID(query int) uint64 { return uint64(query) + 1 }

// RunMulti executes a multi-query simulated experiment: every query is
// admitted at t=0, masters poll one shared head whose grants follow the
// weighted fair share, and each query performs its own global reduction as
// soon as its pool drains — while the other queries keep running.
func RunMulti(cfg MultiConfig) (*MultiResult, error) {
	if len(cfg.Queries) == 0 {
		return nil, fmt.Errorf("hybridsim: at least one query is required")
	}
	if len(cfg.Topology.Clusters) == 0 {
		return nil, fmt.Errorf("hybridsim: at least one cluster is required")
	}
	s := &multiSim{
		cfg:      cfg,
		clock:    &simtime.Clock{},
		fair:     jobs.NewFairShare(),
		egress:   make(map[int]*Resource),
		paths:    make(map[[2]int]*Resource),
		nextSeq:  make(map[int]int),
		lastFile: make(map[int]int),
		granted:    make([]int, len(cfg.Queries)),
		drained:    make([]bool, len(cfg.Queries)),
		reducing:   make([]bool, len(cfg.Queries)),
		iter:       make([]int, len(cfg.Queries)),
		iterFinish: make([][]time.Duration, len(cfg.Queries)),
		expect:     make([]int, len(cfg.Queries)),
		finish:     make([]time.Duration, len(cfg.Queries)),
	}
	s.net = NewNetwork(s.clock)
	s.tr = cfg.Obs.Trace()
	s.tr.SetClock(obs.ClockFunc(s.clock.Now))
	if cfg.Obs != nil {
		cfg.Obs.Clock = obs.ClockFunc(s.clock.Now)
	}
	s.tr.NameProcess(0, "head")
	s.tr.NameThread(0, 0, "scheduler")
	for qi, q := range cfg.Queries {
		if q.Index == nil {
			return nil, fmt.Errorf("hybridsim: query %d (%s) has no index", qi, q.Name)
		}
		if q.App.ComputeBytesPerSec <= 0 {
			return nil, fmt.Errorf("hybridsim: query %d (%s): App.ComputeBytesPerSec must be positive", qi, q.Name)
		}
		pool, err := jobs.NewPool(q.Index, q.Placement, q.PoolOpts)
		if err != nil {
			return nil, fmt.Errorf("hybridsim: query %d (%s): %w", qi, q.Name, err)
		}
		s.pools = append(s.pools, pool)
		if err := s.fair.Add(qi, pool, q.Weight); err != nil {
			return nil, err
		}
	}
	for site := range cfg.Topology.SeekPenalty {
		s.lastFile[site] = -1
	}
	for site, cap := range cfg.Topology.SourceEgress {
		s.egress[site] = &Resource{Name: fmt.Sprintf("egress-site%d", site), Capacity: cap}
	}
	if cfg.Topology.InterClusterBandwidth > 0 {
		s.interRes = &Resource{Name: "inter-cluster", Capacity: cfg.Topology.InterClusterBandwidth}
	}
	for key, p := range cfg.Topology.Paths {
		s.paths[key] = &Resource{Name: fmt.Sprintf("path-c%d-s%d", key[0], key[1]), Capacity: p.Bandwidth}
	}
	for i, cm := range cfg.Topology.Clusters {
		if cm.Cores <= 0 {
			return nil, fmt.Errorf("hybridsim: cluster %q has %d cores", cm.Name, cm.Cores)
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
		c := &mqCluster{s: s, model: cm, index: i, slowFactor: 1,
			jobsByQuery: make(map[int]stats.JobAccounting), bytesBySite: make(map[int]int64)}
		for lane := cm.RetrievalThreads; lane >= 1; lane-- {
			c.freeLanes = append(c.freeLanes, lane)
		}
		for id := 0; id < cm.Cores; id++ {
			c.idleCores = append(c.idleCores, id)
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
	}
	if cfg.Elastic != nil {
		if cfg.Elastic.Decide == nil {
			return nil, fmt.Errorf("hybridsim: Elastic.Decide is required")
		}
		// Burst workers splice paths into the topology's map mid-run; clone
		// it so the caller's config is never mutated.
		paths := make(map[[2]int]PathModel, len(s.cfg.Topology.Paths))
		for k, v := range s.cfg.Topology.Paths {
			paths[k] = v
		}
		s.cfg.Topology.Paths = paths
		s.clock.After(cfg.Elastic.interval(), func() { s.elasticTick() })
	}
	for _, ev := range cfg.Slowdowns {
		ev := ev
		if ev.Factor <= 1 {
			continue
		}
		if ev.Source {
			if r, ok := s.egress[ev.Site]; ok && r.Capacity > 0 {
				s.clock.After(ev.At, func() {
					// Bank progress at the old rates before the capacity
					// changes, then reshare among the active transfers.
					s.net.advance()
					r.Capacity /= ev.Factor
					s.net.recompute()
					if s.tr.Enabled() {
						s.tr.Instant(0, 0, "fault", "source slowdown",
							obs.Args{"site": ev.Site, "factor": ev.Factor})
					}
				})
			}
			continue
		}
		if ev.Cluster < 0 || ev.Cluster >= len(s.clusters) {
			continue
		}
		s.clock.After(ev.At, func() {
			c := s.clusters[ev.Cluster]
			c.slowFactor = ev.Factor
			if s.tr.Enabled() {
				s.tr.Instant(c.pid(), 0, "fault", "slowdown", obs.Args{"factor": ev.Factor})
			}
		})
	}
	if cfg.Topology.Stage != nil {
		s.stage = newStageState(s, *cfg.Topology.Stage)
		s.stage.start()
	}
	for _, c := range s.clusters {
		c.poll()
	}
	s.clock.Run()
	if s.err != nil {
		return nil, s.err
	}
	if s.finished < len(cfg.Queries) {
		return nil, fmt.Errorf("hybridsim: multi-query simulation stalled (%d/%d queries finished)",
			s.finished, len(cfg.Queries))
	}
	res := &MultiResult{Seeks: s.seeks}
	if s.stage != nil {
		res.Stage = s.stage.snapshot()
	}
	for qi, q := range cfg.Queries {
		qr := QueryResult{Name: q.Name, Finish: s.finish[qi], Granted: s.granted[qi],
			IterFinish: s.iterFinish[qi]}
		for _, c := range s.clusters {
			qr.Jobs = append(qr.Jobs, c.jobsByQuery[qi])
		}
		res.Queries = append(res.Queries, qr)
		if s.finish[qi] > res.Total {
			res.Total = s.finish[qi]
		}
	}
	for _, c := range s.clusters {
		var total stats.JobAccounting
		for _, acct := range c.jobsByQuery {
			total.Local += acct.Local
			total.Stolen += acct.Stolen
		}
		res.Clusters = append(res.Clusters, MultiClusterResult{
			Name:           c.model.Name,
			Site:           c.model.Site,
			Cores:          c.model.Cores,
			Burst:          c.burst,
			Launched:       c.launched,
			Drained:        c.drainedAt,
			Jobs:           total,
			BytesBySite:    c.bytesBySite,
			StageReadBytes: c.stageReadBytes,
		})
	}
	res.Total += cfg.Topology.ControlLatency // Finished broadcast
	return res, nil
}

func (s *multiSim) allDrained() bool {
	for _, d := range s.drained {
		if !d {
			return false
		}
	}
	return true
}

// pollEvery is the masters' back-off between empty grants while some query
// is still undrained (jobs outstanding on other clusters).
func (s *multiSim) mqPollEvery() time.Duration {
	if d := 2 * s.cfg.Topology.ControlLatency; d > 0 {
		return d
	}
	return time.Millisecond
}

func (c *mqCluster) batch() int {
	if c.s.cfg.RequestBatch > 0 {
		return c.s.cfg.RequestBatch
	}
	b := c.model.RetrievalThreads / 2
	if b < 4 {
		b = 4
	}
	return b
}

// poll is the agent's shared master loop: one request serves every query,
// the head answering with a fair-share-interleaved grant.
func (c *mqCluster) poll() {
	if c.requesting || c.exhausted || c.draining || c.gone {
		return
	}
	if len(c.queue) >= c.batch() {
		return
	}
	c.requesting = true
	s := c.s
	rtt := 2 * s.cfg.Topology.ControlLatency
	s.clock.After(rtt, func() {
		c.requesting = false
		if c.draining || c.gone {
			// The drain raced an in-flight poll: the head stops granting
			// to a draining site.
			s.maybeDrained(c)
			return
		}
		tagged := s.fair.Assign(c.model.Site, c.batch())
		if len(tagged) == 0 {
			if s.allDrained() {
				c.exhausted = true
				return
			}
			// Empty but undrained somewhere: poll again (the live PollReply's
			// Wait hint). New grants can appear when another cluster drains a
			// shared pool or a weight rotation comes around.
			s.clock.After(s.mqPollEvery(), func() { c.poll() })
			return
		}
		for _, tg := range tagged {
			s.granted[tg.Query]++
		}
		if s.tr.Enabled() {
			// One head-side grant span per (poll, query), stamped at the
			// virtual instant the head issued the grant (half an RTT ago).
			// Grouping preserves first-seen order so traces stay
			// byte-identical run to run.
			grantT := s.clock.Now() - s.cfg.Topology.ControlLatency
			if grantT < 0 {
				grantT = 0
			}
			var qs []int
			jobsBy := make(map[int][]int)
			for _, tg := range tagged {
				if _, ok := jobsBy[tg.Query]; !ok {
					qs = append(qs, tg.Query)
				}
				jobsBy[tg.Query] = append(jobsBy[tg.Query], tg.Job.ID)
			}
			for _, qi := range qs {
				s.tr.Complete(0, 0, "scheduling", "grant", grantT, grantT, obs.Args{
					"trace": mqTraceID(qi), "query": qi, "site": c.model.Site, "jobs": jobsBy[qi]})
			}
		}
		c.queue = append(c.queue, tagged...)
		c.kickRetrievers()
	})
}

func (c *mqCluster) kickRetrievers() {
	for len(c.freeLanes) > 0 {
		lane := c.freeLanes[len(c.freeLanes)-1]
		if !c.startFetch(lane) {
			break
		}
		c.freeLanes = c.freeLanes[:len(c.freeLanes)-1]
	}
}

// startFetch begins one chunk transfer, charging the same egress, path and
// seek resources as the single-query simulator.
func (c *mqCluster) startFetch(lane int) bool {
	if len(c.ready)+c.inFlight >= c.model.QueueDepth {
		return false
	}
	if len(c.queue) == 0 {
		c.poll()
		return false
	}
	tg := c.queue[0]
	c.queue = c.queue[1:]
	c.poll() // queue diminished; maybe request more
	s := c.s
	j := tg.Job
	var resources []*Resource
	var latency time.Duration
	var perStream float64
	// A cache-eligible read checks the burst-side replica first: a hit is
	// served at the replica's cloud-local rates instead of drawing origin
	// egress across the WAN; a miss travels the normal path and deposits the
	// chunk in the replica on the way past (read-through).
	var sKey stageKey
	cached := s.stage != nil && s.stage.eligible(c) && s.stage.cacheable(j.Site)
	stageHit := false
	if cached {
		sKey = stageKey{query: tg.Query, site: j.Site, file: j.Ref.File, seq: j.Ref.Seq}
		_, stageHit = s.stage.resident[sKey]
		s.stage.recordRead(s.iter[tg.Query], stageHit, j.Ref.Size)
	}
	if stageHit {
		if s.stage.serveRes != nil {
			resources = append(resources, s.stage.serveRes)
		}
		latency = s.stage.model.ServeLatency
		perStream = s.stage.model.ServePerStream
	} else {
		if r, ok := s.egress[j.Site]; ok && r.Capacity > 0 {
			resources = append(resources, r)
		}
		if pm, ok := s.cfg.Topology.Paths[[2]int{c.index, j.Site}]; ok {
			if r := s.paths[[2]int{c.index, j.Site}]; r != nil && r.Capacity > 0 {
				resources = append(resources, r)
			}
			latency = pm.Latency
			perStream = pm.PerStream
		}
		if pen, ok := s.cfg.Topology.SeekPenalty[j.Site]; ok && pen > 0 {
			// Sequence tracking is per (query, file): two queries interleaving
			// over the same files look like two readers to the storage site.
			key := tg.Query<<20 | j.Ref.File
			if s.lastFile[j.Site] != key || s.nextSeq[key] != j.Ref.Seq {
				latency += pen
				s.seeks++
			}
			s.lastFile[j.Site] = key
			s.nextSeq[key] = j.Ref.Seq + 1
		}
	}
	c.inFlight++
	start := s.clock.Now()
	s.net.Start(j.Ref.Size, latency, perStream, resources, func() {
		c.inFlight--
		if stageHit {
			c.stageReadBytes += j.Ref.Size
		} else {
			c.bytesBySite[j.Site] += j.Ref.Size
			if cached {
				s.stage.insert(sKey, j.Ref.Size)
			}
		}
		if s.stage != nil && s.stage.cacheable(j.Site) {
			s.stage.retrieved[stageKey{query: tg.Query, site: j.Site, file: j.Ref.File, seq: j.Ref.Seq}] = true
		}
		if s.tr.Enabled() {
			args := obs.Args{"trace": mqTraceID(tg.Query), "query": tg.Query, "file": j.Ref.File,
				"seq": j.Ref.Seq, "site": j.Site, "bytes": j.Ref.Size}
			if stageHit {
				args["staged"] = true
			}
			s.tr.Complete(c.pid(), lane, "retrieval", fmt.Sprintf("job %d", j.ID), start, s.clock.Now(), args)
		}
		c.ready = append(c.ready, mqChunk{tg: tg, bytes: j.Ref.Size})
		c.kickCores()
		if c.startFetch(lane) {
			return
		}
		c.freeLanes = append(c.freeLanes, lane)
	})
	return true
}

func (c *mqCluster) kickCores() {
	for len(c.idleCores) > 0 && len(c.ready) > 0 {
		core := c.idleCores[len(c.idleCores)-1]
		c.idleCores = c.idleCores[:len(c.idleCores)-1]
		qc := c.ready[0]
		c.ready = c.ready[1:]
		c.busyCores++
		c.kickRetrievers()
		c.process(core, qc)
	}
}

// process models one core crunching one chunk at the owning query's rate.
func (c *mqCluster) process(core int, qc mqChunk) {
	s := c.s
	app := s.cfg.Queries[qc.tg.Query].App
	h := splitmix64(s.cfg.Seed ^ uint64(c.index)<<32 ^ uint64(qc.tg.Job.ID) ^ uint64(qc.tg.Query)<<48)
	jit := 1.0
	if c.model.Jitter > 0 {
		u := float64(h>>11) / float64(1<<53)
		jit = 1 - c.model.Jitter + 2*c.model.Jitter*u
	}
	rate := app.ComputeBytesPerSec * c.model.CoreSpeed * jit
	if c.slowFactor > 1 {
		rate /= c.slowFactor // an injected mid-run degradation
	}
	d := time.Duration(float64(qc.bytes) / rate * float64(time.Second))
	start := s.clock.Now()
	s.clock.After(d, func() {
		c.busyCores--
		c.idleCores = append(c.idleCores, core)
		if s.tr.Enabled() {
			s.tr.Complete(c.pid(), c.coreTid(core), "processing", fmt.Sprintf("job %d", qc.tg.Job.ID),
				start, s.clock.Now(), obs.Args{"trace": mqTraceID(qc.tg.Query), "query": qc.tg.Query,
					"bytes": qc.bytes, "stolen": qc.tg.Job.Site != c.model.Site})
		}
		c.complete(qc.tg)
		c.kickCores()
		c.kickRetrievers()
		if c.draining {
			s.maybeDrained(c)
		}
	})
}

// complete records one processed chunk against its query and, when that
// drains the query's pool, starts the query's own global reduction while
// every other query keeps running.
func (c *mqCluster) complete(tg jobs.Tagged) {
	s := c.s
	if s.err != nil {
		return
	}
	pool := s.pools[tg.Query]
	if err := pool.Complete(tg.Job); err != nil {
		s.err = err
		return
	}
	acct := c.jobsByQuery[tg.Query]
	if tg.Job.Site != c.model.Site {
		acct.Stolen++
	} else {
		acct.Local++
	}
	c.jobsByQuery[tg.Query] = acct
	if !s.drained[tg.Query] && !s.reducing[tg.Query] && pool.Drained() {
		s.reducing[tg.Query] = true
		if !s.queryHasMorePasses(tg.Query) {
			// Final pass: the query leaves the fair share for good and the
			// masters may exhaust once every query has done the same.
			s.drained[tg.Query] = true
		}
		s.fair.Remove(tg.Query)
		s.startGlobalReduction(tg.Query)
	}
}

// queryHasMorePasses reports whether the query re-reads its dataset again
// after the pass currently in flight.
func (s *multiSim) queryHasMorePasses(q int) bool {
	return s.iter[q]+1 < s.cfg.Queries[q].Iterations
}

// startGlobalReduction ships every contributing cluster's reduction object
// for one query to the head (the head cluster's is free) and merges them
// serially on the shared head pipeline.
func (s *multiSim) startGlobalReduction(qi int) {
	t := s.cfg.Topology
	app := s.cfg.Queries[qi].App
	contributors := 0
	for _, c := range s.clusters {
		if c.jobsByQuery[qi].Local+c.jobsByQuery[qi].Stolen == 0 {
			continue
		}
		contributors++
		if c.index == t.HeadCluster {
			s.robjMerged(qi, app)
			continue
		}
		var res []*Resource
		if s.interRes != nil {
			res = append(res, s.interRes)
		}
		s.net.Start(app.RobjBytes, t.InterClusterLatency, 0, res, func() {
			s.robjMerged(qi, app)
		})
	}
	s.expect[qi] = contributors
	if contributors == 0 {
		s.err = fmt.Errorf("hybridsim: query %d drained with no contributors", qi)
	}
}

// robjMerged serializes one reduction-object merge on the head and finishes
// the query when its last object lands.
func (s *multiSim) robjMerged(qi int, app AppModel) {
	mergeStart := s.clock.Now()
	if mergeStart < s.headBusyAt {
		mergeStart = s.headBusyAt
	}
	merge := time.Duration(0)
	if app.MergeBytesPerSec > 0 {
		merge = time.Duration(float64(app.RobjBytes) / app.MergeBytesPerSec * float64(time.Second))
	}
	s.headBusyAt = mergeStart + merge
	s.clock.At(s.headBusyAt, func() {
		if s.tr.Enabled() {
			s.tr.Complete(0, 0, "reduction", "merge robj", mergeStart, s.clock.Now(),
				obs.Args{"trace": mqTraceID(qi), "query": qi})
		}
		s.expect[qi]--
		if s.expect[qi] == 0 {
			q := s.cfg.Queries[qi]
			s.iter[qi]++
			if q.Iterations > 1 {
				s.iterFinish[qi] = append(s.iterFinish[qi], s.clock.Now())
			}
			if s.iter[qi] < q.Iterations {
				// Another pass: rebuild the pool over the same dataset and
				// rejoin the fair share; the polling masters pick the new
				// grants up on their next round trip.
				pool, err := jobs.NewPool(q.Index, q.Placement, q.PoolOpts)
				if err != nil {
					s.err = err
					return
				}
				s.pools[qi] = pool
				s.reducing[qi] = false
				if err := s.fair.Add(qi, pool, q.Weight); err != nil {
					s.err = err
					return
				}
				if s.tr.Enabled() {
					s.tr.InstantAt(0, 0, "run", fmt.Sprintf("query %d pass %d done", qi, s.iter[qi]),
						s.clock.Now(), obs.Args{"trace": mqTraceID(qi), "query": qi})
				}
				return
			}
			s.finish[qi] = s.clock.Now()
			s.finished++
			if s.tr.Enabled() {
				s.tr.InstantAt(0, 0, "run", fmt.Sprintf("query %d finished", qi), s.clock.Now(),
					obs.Args{"trace": mqTraceID(qi), "query": qi})
			}
		}
	})
}

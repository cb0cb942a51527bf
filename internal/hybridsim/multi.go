package hybridsim

import (
	"fmt"
	"time"

	"repro/internal/chunk"
	"repro/internal/fault"
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

// MultiConfig is a simulated experiment of N queries admitted at t=0 over
// one shared deployment, with the head handing out jobs one at a time by
// the same weighted stride scheduler the live head uses (jobs.FairShare).
// It is the simulator's one event loop: Run executes the one-query
// MultiConfig that Config.Multi builds.
type MultiConfig struct {
	Queries  []MultiQuery
	Topology Topology
	// RequestBatch is the job-group size masters request per poll; defaults
	// to max(RetrievalThreads/2, 4) per cluster, like the live master.
	RequestBatch int
	// Seed drives the deterministic jitter stream.
	Seed uint64
	// Obs attaches observability: the sim_* metrics, and with an enabled
	// tracer the same merged multi-site trace shape the live head emits —
	// head-side grant spans on pid 0, per-cluster retrieval and processing
	// spans on pid i+1, every span carrying the owning query's trace id
	// (query+1) — but on virtual time, so live and simulated runs are
	// visually comparable side by side.
	Obs *obs.Obs
	// Elastic, when non-nil, enables mid-run cluster add/remove driven by
	// the Decide hook on the virtual clock (see ElasticSim).
	Elastic *ElasticSim
	// Slowdowns injects unanticipated mid-run degradation. The elasticity
	// experiments use these as the perturbation a static, pre-sized
	// provisioning plan cannot absorb.
	Slowdowns []MultiSlowdown

	// faults is the fault plan (fault.go); Config.Multi carries
	// Config.Faults here.
	faults fault.Plan
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
	// Jobs is the per-cluster accounting, indexed like MultiResult.Clusters.
	Jobs []stats.JobAccounting
	// Breakdown is each cluster's Figure-3 decomposition of this query:
	// processing is the query's core-busy time ÷ cores, retrieval the rest
	// up to the cluster's last fold, sync the wait from there to the
	// Finished broadcast. Indexed like Jobs.
	Breakdown []stats.Breakdown
	// LocalDone is each cluster's last fold of this query (0 when it folded
	// none). Indexed like Jobs.
	LocalDone []time.Duration
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
	// Faults summarizes fault-plan activity (zero without a plan).
	Faults FaultStats
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
	// RetrievalBusy is the total time retrieval lanes spent transferring.
	RetrievalBusy time.Duration
}

// mqChunk is one retrieved-but-unprocessed chunk, tagged with its query.
type mqChunk struct {
	tg    jobs.Tagged
	bytes int64
}

// mqCluster is one cluster's agent: a single master/poll loop interleaving
// every query's jobs, like cluster.RunAgent, feeding retrieval lanes and
// processing cores.
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

	// slowFactor divides the compute rate once a slowdown lands (a
	// MultiSlowdown or a fault.Slowdown event).
	slowFactor float64

	freeLanes []int
	inFlight  int
	ready     []mqChunk
	idleCores []int
	busyCores int

	perQuery       []clusterQuery // indexed by query
	bytesBySite    map[int]int64
	stageReadBytes int64
	retrBusy       time.Duration

	// Fault-plan state (fault.go; idle without a plan). epoch counts
	// incarnations: every callback an incarnation schedules captures the
	// epoch and no-ops once the cluster has crashed, so in-flight transfers,
	// busy cores and pending polls die with the machine instead of leaking
	// into its replacement.
	epoch         int
	detectedEpoch int  // last incarnation the head declared failed
	down          bool // crashed, waiting for restart
	partitioned   bool // cut off from head and storage
	fenced        bool // lease expired mid-partition; commits will be refused
	checkpointing bool // quiescing cores for a checkpoint merge
	deferred      []jobs.Tagged
}

// clusterQuery is one cluster's state for one query.
type clusterQuery struct {
	jobs     stats.JobAccounting
	coreBusy time.Duration // core time spent folding the query's chunks
	lastFold time.Duration

	// pendingShip marks a reduction object the head asked for while the
	// cluster was down or partitioned; it ships when the cluster is back.
	pendingShip bool
	// sinceCkpt holds first commits no landed checkpoint or shipped object
	// covers yet — what a failure reissues. commitSeq counts commits ever
	// appended; trimSeq is the commitSeq position of sinceCkpt[0], so
	// overlapping checkpoint ships trim only what earlier landings haven't.
	sinceCkpt []jobs.Job
	commitSeq int
	trimSeq   int
	hasCkpt   bool
	ckptSeq   int
	// Latency-watchdog state, nil/false unless the plan arms it: the grant
	// time of each job the cluster holds, its grant→commit latencies, and
	// whether the watchdog already flagged it.
	grantAt   map[int]time.Duration
	latHist   *obs.Histogram
	wdFlagged bool
}

// contributed reports whether the cluster holds credited work for the
// query, so the query's global reduction needs its object.
func (st *clusterQuery) contributed() bool { return st.jobs.Local+st.jobs.Stolen > 0 }

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

	// nextSeq tracks, per (query, file), the chunk sequence number that
	// would continue a sequential read; lastFile tracks, per site, the
	// (query, file) the site served last. A fetch that switches files or
	// breaks a file's sequence pays the site's seek penalty.
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

	// Fault-plan state (fault.go).
	fstats     FaultStats
	emptySince time.Duration    // start of the current empty-but-undrained episode; -1 when none
	latAll     []*obs.Histogram // per-query grant→commit latency, the watchdog's median baseline

	// Observability (all nil-safe). The loop is single-threaded, so fetch
	// latencies accumulate in an unsynchronized histogram and every counter
	// is flushed once at the end — an attached-but-idle Obs costs the hot
	// path nothing but a nil check.
	tr         *obs.Tracer
	hRetrieval *obs.LocalHistogram
}

// Trace layout mirrors the live merged trace: pid 0 is the head, pid i+1 is
// cluster i; within a cluster tid 0 is the master, 1..R the retrieval lanes,
// R+1..R+cores the processing cores, and tidBreakdown+q query q's
// phase-summary track.
const tidBreakdown = 999

func (c *mqCluster) pid() int { return c.index + 1 }
func (c *mqCluster) coreTid(id int) int {
	return 1 + c.model.RetrievalThreads + id
}

// mqTraceID is the deterministic per-query trace id, matching the live
// head's convention (query+1; 0 stays "no trace").
func mqTraceID(query int) uint64 { return uint64(query) + 1 }

// RunMulti executes a simulated experiment: every query is admitted at t=0,
// masters poll one shared head whose grants follow the weighted fair share,
// and each query performs its own global reduction as soon as its pool
// drains — while the other queries keep running.
func RunMulti(cfg MultiConfig) (*MultiResult, error) {
	if len(cfg.Queries) == 0 {
		return nil, fmt.Errorf("hybridsim: at least one query is required")
	}
	if len(cfg.Topology.Clusters) == 0 {
		return nil, fmt.Errorf("hybridsim: at least one cluster is required")
	}
	nq := len(cfg.Queries)
	s := &multiSim{
		cfg:        cfg,
		clock:      &simtime.Clock{},
		fair:       jobs.NewFairShare(),
		egress:     make(map[int]*Resource),
		paths:      make(map[[2]int]*Resource),
		nextSeq:    make(map[int]int),
		lastFile:   make(map[int]int),
		granted:    make([]int, nq),
		drained:    make([]bool, nq),
		reducing:   make([]bool, nq),
		iter:       make([]int, nq),
		iterFinish: make([][]time.Duration, nq),
		expect:     make([]int, nq),
		finish:     make([]time.Duration, nq),
		emptySince: -1,
	}
	// The pools report into the run's registry; copy the queries so the
	// caller's config is never mutated.
	reg := cfg.Obs.Metrics()
	s.cfg.Queries = append([]MultiQuery(nil), cfg.Queries...)
	s.net = NewNetwork(s.clock)
	s.tr = cfg.Obs.Trace()
	s.tr.SetClock(obs.ClockFunc(s.clock.Now))
	if cfg.Obs != nil {
		cfg.Obs.Clock = obs.ClockFunc(s.clock.Now)
	}
	if reg != nil {
		s.hRetrieval = obs.NewLocalHistogram(nil)
	}
	s.tr.NameProcess(0, "head")
	s.tr.NameThread(0, 0, "scheduler")
	for qi := range s.cfg.Queries {
		q := &s.cfg.Queries[qi]
		if q.Index == nil {
			return nil, fmt.Errorf("hybridsim: query %d (%s) has no index", qi, q.Name)
		}
		if q.App.ComputeBytesPerSec <= 0 {
			return nil, fmt.Errorf("hybridsim: query %d (%s): App.ComputeBytesPerSec must be positive", qi, q.Name)
		}
		if q.PoolOpts.Metrics == nil {
			q.PoolOpts.Metrics = reg
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
	if s.watchdogOn() {
		for range s.cfg.Queries {
			s.latAll = append(s.latAll, obs.NewHistogram(watchdogLatencyBounds))
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
	for _, cm := range cfg.Topology.Clusters {
		if cm.Cores <= 0 {
			return nil, fmt.Errorf("hybridsim: cluster %q has %d cores", cm.Name, cm.Cores)
		}
		s.addCluster(cm)
	}
	if err := s.scheduleFaults(); err != nil {
		return nil, err
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
	if s.finished < nq {
		return nil, fmt.Errorf("hybridsim: simulation stalled (%d/%d queries finished)", s.finished, nq)
	}
	res := s.result()
	s.report(res, reg)
	return res, nil
}

// addCluster appends one cluster — static at startup, or a burst worker
// mid-run — with its lanes, cores, per-query state and trace names.
func (s *multiSim) addCluster(cm ClusterModel) *mqCluster {
	if cm.CoreSpeed <= 0 {
		cm.CoreSpeed = 1
	}
	if cm.RetrievalThreads <= 0 {
		cm.RetrievalThreads = 2
	}
	if cm.QueueDepth <= 0 {
		cm.QueueDepth = 2 * cm.Cores
	}
	c := &mqCluster{s: s, model: cm, index: len(s.clusters), slowFactor: 1, detectedEpoch: -1,
		perQuery: make([]clusterQuery, len(s.cfg.Queries)), bytesBySite: make(map[int]int64)}
	c.freeAll()
	if s.latAll != nil {
		for q := range c.perQuery {
			c.perQuery[q].grantAt = make(map[int]time.Duration)
			c.perQuery[q].latHist = obs.NewHistogram(watchdogLatencyBounds)
		}
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
	for q := range c.perQuery {
		s.tr.NameThread(c.pid(), tidBreakdown+q, "breakdown")
	}
	if every := s.cfg.faults.CheckpointEvery; every > 0 {
		s.clock.After(every, c.checkpointTick)
	}
	return c
}

// freeAll returns every retrieval lane and core to the idle stacks; the
// lanes are stacked so the first pop is lane 1, matching thread ids.
func (c *mqCluster) freeAll() {
	c.freeLanes = c.freeLanes[:0]
	for lane := c.model.RetrievalThreads; lane >= 1; lane-- {
		c.freeLanes = append(c.freeLanes, lane)
	}
	c.idleCores = c.idleCores[:0]
	for id := 0; id < c.model.Cores; id++ {
		c.idleCores = append(c.idleCores, id)
	}
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
// is still undrained (jobs outstanding on other clusters): 2·ControlLatency,
// at least 1 ms.
func (s *multiSim) pollEvery() time.Duration {
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
// the head answering with a fair-share-interleaved grant, one job per ask —
// the head's own FairShare.Assign.
func (c *mqCluster) poll() {
	if c.requesting || c.exhausted || c.draining || c.gone || c.down || c.partitioned {
		return
	}
	if len(c.queue) >= c.batch() {
		return
	}
	c.requesting = true
	s := c.s
	epoch := c.epoch
	s.clock.After(2*s.cfg.Topology.ControlLatency, func() {
		if c.epoch != epoch {
			return // the poll died with a crashed incarnation
		}
		c.requesting = false
		if c.partitioned {
			return // reply cut off; the heal polls again
		}
		if c.draining || c.gone {
			// The drain raced an in-flight poll: the head stops granting
			// to a draining site.
			s.maybeDrained(c)
			return
		}
		// The head runs its latency watchdog on every poll, so a freshly
		// flagged straggler's speculative copies can land in this grant.
		s.checkLatencyStragglers()
		tagged := s.fair.Assign(c.model.Site, c.batch())
		if len(tagged) == 0 {
			if s.allDrained() {
				c.exhausted = true
				return
			}
			// Empty but undrained somewhere: poll again (the live PollReply's
			// Wait hint). New grants can appear when another cluster drains a
			// shared pool, a failure requeues work or speculation re-adds it.
			s.noteEmptyGrant()
			s.clock.After(s.pollEvery(), func() {
				if c.epoch == epoch {
					c.poll()
				}
			})
			return
		}
		s.emptySince = -1 // a grant landed; the straggler episode is over
		now := s.clock.Now()
		for _, tg := range tagged {
			s.granted[tg.Query]++
			if at := c.perQuery[tg.Query].grantAt; at != nil {
				at[tg.Job.ID] = now
			}
		}
		if s.tr.Enabled() {
			// One head-side grant span per (poll, query), stamped at the
			// virtual instant the head issued the grant (half an RTT ago).
			grantT := now - s.cfg.Topology.ControlLatency
			if grantT < 0 {
				grantT = 0
			}
			jobsBy := make([][]int, len(s.cfg.Queries))
			for _, tg := range tagged {
				jobsBy[tg.Query] = append(jobsBy[tg.Query], tg.Job.ID)
			}
			for qi, ids := range jobsBy {
				if len(ids) > 0 {
					s.tr.Complete(0, 0, "scheduling", "grant", grantT, grantT, obs.Args{
						"trace": mqTraceID(qi), "query": qi, "site": c.model.Site, "jobs": ids})
				}
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

// startFetch begins one chunk transfer on the given retrieval lane if a job
// and a buffer slot are available, charging the source egress, the path
// and — on a sequence break — the site's seek penalty. It returns false
// when the lane should stay idle.
func (c *mqCluster) startFetch(lane int) bool {
	if c.down || c.partitioned {
		return false // no path to any storage site
	}
	if len(c.ready)+c.inFlight >= c.model.QueueDepth {
		return false // back-pressure: slave memory full
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
	sKey := stageKey{query: tg.Query, site: j.Site, file: j.Ref.File, seq: j.Ref.Seq}
	cached := s.stage != nil && s.stage.eligible(c) && s.stage.cacheable(j.Site)
	stageHit := false
	if cached {
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
	epoch := c.epoch
	s.net.Start(j.Ref.Size, latency, perStream, resources, func() {
		if c.epoch != epoch {
			return // the destination crashed; the bytes are discarded
		}
		c.inFlight--
		end := s.clock.Now()
		c.retrBusy += end - start
		s.hRetrieval.Observe(end - start)
		if stageHit {
			c.stageReadBytes += j.Ref.Size
		} else {
			c.bytesBySite[j.Site] += j.Ref.Size
			if cached {
				s.stage.insert(sKey, j.Ref.Size)
			}
		}
		if s.stage != nil && s.stage.cacheable(j.Site) {
			s.stage.retrieved[sKey] = true
		}
		if s.tr.Enabled() {
			args := obs.Args{"trace": mqTraceID(tg.Query), "query": tg.Query, "file": j.Ref.File,
				"seq": j.Ref.Seq, "site": j.Site, "bytes": j.Ref.Size, "stolen": j.Site != c.model.Site}
			if stageHit {
				args["staged"] = true
			}
			s.tr.Complete(c.pid(), lane, "retrieval", fmt.Sprintf("job %d", j.ID), start, end, args)
		}
		c.ready = append(c.ready, mqChunk{tg: tg, bytes: j.Ref.Size})
		c.kickCores()
		// This retrieval lane immediately looks for the next job.
		if c.startFetch(lane) {
			return
		}
		c.freeLanes = append(c.freeLanes, lane)
	})
	return true
}

// kickCores puts idle cores to work on retrieved chunks.
func (c *mqCluster) kickCores() {
	if c.checkpointing {
		return // quiescing: no new folds until the checkpoint merge is done
	}
	for len(c.idleCores) > 0 && len(c.ready) > 0 {
		core := c.idleCores[len(c.idleCores)-1]
		c.idleCores = c.idleCores[:len(c.idleCores)-1]
		qc := c.ready[0]
		c.ready = c.ready[1:]
		c.busyCores++
		// A buffer slot freed: retrieval lanes may resume.
		c.kickRetrievers()
		c.process(core, qc)
	}
}

// process models one core crunching one chunk at the owning query's rate,
// with a deterministic per-(cluster, query, job) jitter in [1-J, 1+J].
func (c *mqCluster) process(core int, qc mqChunk) {
	s := c.s
	q := qc.tg.Query
	h := splitmix64(s.cfg.Seed ^ uint64(c.index)<<32 ^ uint64(qc.tg.Job.ID) ^ uint64(q)<<48)
	jit := 1.0
	if c.model.Jitter > 0 {
		u := float64(h>>11) / float64(1<<53)
		jit = 1 - c.model.Jitter + 2*c.model.Jitter*u
	}
	rate := s.cfg.Queries[q].App.ComputeBytesPerSec * c.model.CoreSpeed * jit
	if c.slowFactor > 1 {
		rate /= c.slowFactor // an injected mid-run degradation
	}
	d := time.Duration(float64(qc.bytes) / rate * float64(time.Second))
	start := s.clock.Now()
	epoch := c.epoch
	s.clock.After(d, func() {
		if c.epoch != epoch {
			return // the core died mid-chunk; its work is gone
		}
		c.busyCores--
		c.idleCores = append(c.idleCores, core)
		st := &c.perQuery[q]
		st.coreBusy += d
		st.lastFold = s.clock.Now()
		if s.tr.Enabled() {
			s.tr.Complete(c.pid(), c.coreTid(core), "processing", fmt.Sprintf("job %d", qc.tg.Job.ID),
				start, st.lastFold, obs.Args{"trace": mqTraceID(q), "query": q,
					"bytes": qc.bytes, "stolen": qc.tg.Job.Site != c.model.Site})
		}
		if c.partitioned {
			c.deferred = append(c.deferred, qc.tg) // reported when the partition heals
		} else {
			c.commit(qc.tg)
		}
		c.kickCores()
		c.kickRetrievers()
		if c.draining {
			s.maybeDrained(c)
		}
	})
}

// commit reports one fold to the head. The pool deduplicates speculative
// and recovered copies by job ID, so only a first commit earns the cluster
// credit and a checkpoint obligation; the commit that drains a pool starts
// its query's global reduction while every other query keeps running.
func (c *mqCluster) commit(tg jobs.Tagged) {
	s := c.s
	if s.err != nil {
		return
	}
	st := &c.perQuery[tg.Query]
	// Grant→commit latency feeds the watchdog; duplicates count too — a
	// straggler's late copies are exactly the signal (mirrors the head).
	if t0, ok := st.grantAt[tg.Job.ID]; ok {
		delete(st.grantAt, tg.Job.ID)
		lat := s.clock.Now() - t0
		st.latHist.Observe(lat)
		s.latAll[tg.Query].Observe(lat)
	}
	dup, err := s.pools[tg.Query].Commit(c.model.Site, tg.Job)
	if err != nil {
		s.err = err
		return
	}
	switch {
	case dup:
		s.fstats.DupCommits++
	case tg.Job.Site != c.model.Site:
		st.jobs.Stolen++
	default:
		st.jobs.Local++
	}
	if !dup && s.cfg.faults.Active() {
		// Only a fault plan can reissue a commit; without one, tracking the
		// checkpoint obligation would cost an allocation per job for nothing.
		st.sinceCkpt = append(st.sinceCkpt, tg.Job)
		st.commitSeq++
	}
	// Even a duplicate can drain the pool: it releases the last live copy.
	s.maybeReduce(tg.Query)
}

// queryHasMorePasses reports whether the query re-reads its dataset again
// after the pass currently in flight.
func (s *multiSim) queryHasMorePasses(q int) bool {
	return s.iter[q]+1 < s.cfg.Queries[q].Iterations
}

// maybeReduce starts query q's global reduction — the head's Done — once
// its pool has drained. A contributor whose crash or partition the head has
// not detected yet holds it back: detection may still reissue that
// cluster's un-checkpointed commits.
func (s *multiSim) maybeReduce(q int) {
	if s.reducing[q] || !s.pools[q].Drained() {
		return
	}
	for _, c := range s.clusters {
		if c.perQuery[q].contributed() && c.failing() {
			return
		}
	}
	s.reducing[q] = true
	if !s.queryHasMorePasses(q) {
		// Final pass: the query leaves the fair share for good and the
		// masters may exhaust once every query has done the same.
		s.drained[q] = true
	}
	s.fair.Remove(q)
	s.startGlobalReduction(q)
}

// startGlobalReduction asks every contributing cluster for its reduction
// object for query qi; a cluster that is down or partitioned ships when it
// is back.
func (s *multiSim) startGlobalReduction(qi int) {
	contributors := 0
	for _, c := range s.clusters {
		st := &c.perQuery[qi]
		if !st.contributed() {
			continue
		}
		contributors++
		if c.down || c.partitioned {
			st.pendingShip = true
			continue
		}
		c.ship(qi)
	}
	s.expect[qi] = contributors
	if contributors == 0 {
		s.err = fmt.Errorf("hybridsim: query %d drained with no contributors", qi)
	}
}

// ship sends the cluster's reduction object for query q to the head — free
// for the cluster hosting the head, over the shared inter-cluster pipe
// otherwise — and queues its merge. A shipped object makes the cluster's
// commits durable: nothing of it is reissued, and a next pass starts from a
// fresh object.
func (c *mqCluster) ship(q int) {
	s := c.s
	st := &c.perQuery[q]
	st.pendingShip = false
	st.sinceCkpt = nil
	st.trimSeq = st.commitSeq
	st.hasCkpt = false
	app := s.cfg.Queries[q].App
	if c.index == s.cfg.Topology.HeadCluster {
		s.robjMerged(q, app)
		return
	}
	start := s.clock.Now()
	s.net.Start(app.RobjBytes, s.cfg.Topology.InterClusterLatency, 0, s.robjResources(c), func() {
		if s.tr.Enabled() {
			s.tr.Complete(c.pid(), 0, "reduction", "robj-transfer", start, s.clock.Now(),
				obs.Args{"trace": mqTraceID(q), "query": q, "bytes": app.RobjBytes})
		}
		s.robjMerged(q, app)
	})
}

// robjMerged serializes one reduction-object merge on the head and finishes
// the query's pass when its last object lands.
func (s *multiSim) robjMerged(qi int, app AppModel) {
	mergeStart := s.clock.Now()
	if mergeStart < s.headBusyAt {
		mergeStart = s.headBusyAt
	}
	s.headBusyAt = mergeStart + app.mergeTime()
	s.clock.At(s.headBusyAt, func() {
		if s.tr.Enabled() {
			s.tr.Complete(0, 0, "reduction", "merge robj", mergeStart, s.clock.Now(),
				obs.Args{"trace": mqTraceID(qi), "query": qi})
		}
		s.expect[qi]--
		if s.expect[qi] > 0 {
			return
		}
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
	})
}

// result assembles the run's outcome from the per-cluster accumulators.
func (s *multiSim) result() *MultiResult {
	res := &MultiResult{Seeks: s.seeks, Faults: s.fstats}
	if s.stage != nil {
		res.Stage = s.stage.snapshot()
	}
	for _, f := range s.finish {
		if f > res.Total {
			res.Total = f
		}
	}
	res.Total += s.cfg.Topology.ControlLatency // Finished broadcast
	for qi, q := range s.cfg.Queries {
		qr := QueryResult{Name: q.Name, Finish: s.finish[qi], Granted: s.granted[qi],
			IterFinish: s.iterFinish[qi]}
		end := s.finish[qi] + s.cfg.Topology.ControlLatency
		for _, c := range s.clusters {
			st := c.perQuery[qi]
			proc := st.coreBusy / time.Duration(c.model.Cores)
			qr.Jobs = append(qr.Jobs, st.jobs)
			qr.LocalDone = append(qr.LocalDone, st.lastFold)
			qr.Breakdown = append(qr.Breakdown, stats.Breakdown{
				Processing: proc, Retrieval: st.lastFold - proc, Sync: end - st.lastFold})
		}
		res.Queries = append(res.Queries, qr)
	}
	for _, c := range s.clusters {
		var total stats.JobAccounting
		for _, st := range c.perQuery {
			total.Local += st.jobs.Local
			total.Stolen += st.jobs.Stolen
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
			RetrievalBusy:  c.retrBusy,
		})
	}
	return res
}

// report flushes the run's sim_* metrics once from the accumulators the
// loop keeps anyway — cheaper than atomics per simulated event, and
// consistent with res by construction — and, when tracing, marks the
// Finished instant and lays each (query, cluster) Breakdown out as
// back-to-back phase spans, so the trace carries the exact Figure-3
// decomposition.
func (s *multiSim) report(res *MultiResult, reg *obs.Registry) {
	if reg != nil {
		for _, c := range res.Clusters {
			reg.Counter("sim_jobs_local_total").Add(int64(c.Jobs.Local))
			reg.Counter("sim_jobs_stolen_total").Add(int64(c.Jobs.Stolen))
			for site, n := range c.BytesBySite {
				reg.Counter(fmt.Sprintf("sim_retrieved_bytes_site%d", site)).Add(n)
			}
		}
		reg.Counter("sim_seeks_total").Add(int64(s.seeks))
		reg.Histogram("sim_retrieval_seconds", nil).Merge(s.hRetrieval)
		if s.cfg.faults.Active() {
			f := s.fstats
			reg.Counter("sim_fault_crashes_total").Add(int64(f.Crashes))
			reg.Counter("sim_fault_recoveries_total").Add(int64(f.Recoveries))
			reg.Counter("sim_fault_reissued_total").Add(int64(f.Reissued))
			reg.Counter("sim_checkpoints_total").Add(int64(f.Checkpoints))
			reg.Counter("sim_dup_commits_total").Add(int64(f.DupCommits))
			reg.Counter("sim_speculated_total").Add(int64(f.Speculated))
			reg.Counter("sim_straggler_flagged_total").Add(int64(f.LatencyFlags))
		}
	}
	if !s.tr.Enabled() {
		return
	}
	s.tr.InstantAt(0, 0, "run", "finished", res.Total, obs.Args{"total_s": res.Total.Seconds()})
	for qi, qr := range res.Queries {
		for i, b := range qr.Breakdown {
			t0 := time.Duration(0)
			for _, ph := range []struct {
				name string
				d    time.Duration
			}{{"processing", b.Processing}, {"retrieval", b.Retrieval}, {"sync", b.Sync}} {
				s.tr.Complete(i+1, tidBreakdown+qi, "phase", ph.name, t0, t0+ph.d,
					obs.Args{"trace": mqTraceID(qi), "query": qi})
				t0 += ph.d
			}
		}
	}
}

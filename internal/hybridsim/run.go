package hybridsim

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// Query is one query of a simulated experiment: its own dataset view,
// placement, pool policy, application cost shape, fair-share weight and
// elastic policy — mirroring head.QueryConfig.
type Query struct {
	Name      string
	App       AppModel
	Index     *chunk.Index
	Placement jobs.Placement
	PoolOpts  jobs.Options
	// Weight is the query's fair-share weight (default 1).
	Weight int
	// Iterations makes the query re-read its whole dataset that many times
	// (iterative Generalized Reduction: kmeans, pagerank). Each pass is one
	// admission at the head with a fresh pool over the dataset, and performs
	// its own global reduction before the next is admitted. ≤1 means a
	// single pass.
	Iterations int
	// Policy is the query's elastic policy as head.Admit takes it (nil rides
	// along on fair share); it reaches the elasticity hook with the query's
	// load, as it does live.
	Policy *protocol.ElasticPolicy
}

// Config is a simulated experiment: N queries admitted at t=0 over one
// shared deployment, scheduled by a real head.Head on the virtual clock. A
// single-query experiment is the case N=1.
type Config struct {
	Queries  []Query
	Topology Topology
	// Seed drives the deterministic jitter stream.
	Seed uint64
	// Obs attaches observability: the sim_* metrics, and with an enabled
	// tracer the same merged multi-site trace shape the live head emits —
	// head-side grant spans on pid 0, per-cluster retrieval and processing
	// spans on pid i+1, every span carrying the owning query's trace id
	// (query+1) — but on virtual time, so live and simulated runs are
	// visually comparable side by side. Instrumentation never alters the
	// simulated schedule: a traced and an untraced run with the same seed
	// produce identical Results.
	Obs *obs.Obs
	// Elastic, when non-nil, enables mid-run cluster add/remove driven by
	// the Decide hook on the virtual clock (see ElasticSim).
	Elastic *ElasticSim
	// Slowdowns injects unanticipated mid-run degradation. The elasticity
	// experiments use these as the perturbation a static, pre-sized
	// provisioning plan cannot absorb.
	Slowdowns []Slowdown
	// Faults is the deterministic fault-injection schedule plus the recovery
	// machinery it enables (checkpointing, leases, speculation), driven on
	// the virtual clock (fault.go). The zero plan injects nothing. Runs with
	// the same plan and seed are byte-identical.
	Faults fault.Plan
}

// Slowdown is one injected mid-run degradation. A compute slowdown
// (Source false) makes cluster Cluster (an index into Topology.Clusters)
// process at 1/Factor of its modelled rate from At on. A source slowdown
// (Source true) divides storage site Site's egress capacity by Factor — a
// degraded disk array or an overloaded store, which is what bites
// retrieval-bound applications.
type Slowdown struct {
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
	// Jobs is the per-cluster accounting, indexed like Result.Clusters.
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

// Result reports the whole experiment.
type Result struct {
	// Total is the virtual makespan: until the last query's final merge
	// plus the Finished broadcast.
	Total time.Duration
	// Queries holds per-query results in Config order.
	Queries []QueryResult
	// Seeks counts non-sequential fetches (file switches or sequence
	// breaks) across all sites — the contention the consecutive-job and
	// min-contention policies minimize.
	Seeks int
	// Clusters describes every cluster that took part — the static ones in
	// Topology order followed by burst workers in launch order — with the
	// realized usage cost accounting needs.
	Clusters []ClusterResult
	// Stage reports the burst-side replica's realized behavior; nil when
	// Topology.Stage is unset.
	Stage *StageStats
	// Faults summarizes fault-plan activity (zero without a plan).
	Faults FaultStats
}

// ClusterResult is one cluster's realized footprint over the run.
type ClusterResult struct {
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
	// Breakdown is the cluster's Figure-3 decomposition of the whole run:
	// processing is its core-busy time over every query ÷ cores, retrieval
	// the rest up to its last fold of any query, sync the wait from there
	// to Total. With one query it equals that query's Breakdown entry.
	Breakdown stats.Breakdown
	// BytesBySite counts bytes the cluster retrieved from each hosting site.
	BytesBySite map[int]int64
	// StageReadBytes counts bytes this cluster read from the burst-side
	// replica instead of an origin site (excluded from BytesBySite so
	// transfer-cost accounting never double-charges a cached read).
	StageReadBytes int64
	// RetrievalBusy is the total time retrieval lanes spent transferring
	// (diagnostic; the Breakdown's Retrieval is the non-overlapped stall).
	RetrievalBusy time.Duration
}

// mqJob is one granted job: the query's index in Config.Queries, the
// head's ID for the pass it was granted under, and the job itself.
type mqJob struct {
	query int
	id    int
	job   jobs.Job
}

// mqCluster is one cluster's agent: a single master/poll loop interleaving
// every query's jobs, like cluster.RunAgent, feeding retrieval lanes and
// processing cores. It talks to the simulator's in-process head.Head the way
// the live agent talks to the head node, and keeps its protocol state in the
// live agent's cluster.AgentCore; what it models itself is physics (links,
// disks, cores, boot and crash).
type mqCluster struct {
	s     *multiSim
	model ClusterModel
	index int
	core  *cluster.AgentCore

	queue      []mqJob
	requesting bool
	exhausted  bool

	// registered is set once the agent said Hello (a burst worker only once
	// it has booted). Burst workers are added mid-run by the elasticity hook;
	// draining ones stop receiving grants, finish what they hold, submit
	// their objects, and leave when the head answers Drain.
	registered bool
	burst      bool
	draining   bool
	drainCh    <-chan struct{}
	gone       bool
	launched   time.Duration
	drainedAt  time.Duration

	// slowFactor divides the compute rate once a slowdown lands (a
	// Slowdown or a fault.Slowdown event).
	slowFactor float64

	freeLanes []int
	inFlight  int
	ready     []mqJob // retrieved, not yet folded
	idleCores []int
	busyCores int

	perQuery       []clusterQuery // indexed by query
	bytesBySite    map[int]int64
	stageReadBytes int64
	retrBusy       time.Duration

	// Fault-plan state (fault.go; idle without a plan). epoch counts
	// incarnations: every callback an incarnation schedules captures the
	// epoch and no-ops once the cluster has crashed or been fenced, so
	// in-flight transfers, busy cores and pending polls die with the machine
	// instead of leaking into its replacement.
	epoch         int
	down          bool // crashed, waiting for restart
	partitioned   bool // cut off from head and storage
	checkpointing bool // quiescing cores for a checkpoint merge
	// waits counts the head calls the agent is waiting on: a result, a
	// checkpoint or a reloaded checkpoint on the wire. Meanwhile it starts no
	// retrieval, commits nothing and sends no poll, as RunAgent serves
	// nothing while the head answers.
	waits    int
	deferred []mqJob // commits a partition or a wait holds back
	// specs lists the head query IDs whose spec the incarnation fetched.
	specs []int
	// commit's request and its reply's acks, reused: the head keeps neither.
	commits [1]protocol.JobsDone
	acks    []protocol.JobsDoneAck
}

// clusterQuery is one cluster's physics and result for one query.
type clusterQuery struct {
	jobs     stats.JobAccounting // credit in the objects the head merged
	coreBusy time.Duration       // core time spent folding the query's chunks
	lastFold time.Duration
}

type multiSim struct {
	cfg      Config
	clock    *simtime.Clock
	net      *Network
	head     *head.Head
	clusters []*mqCluster
	egress   map[int]*Resource
	paths    map[[2]int]*Resource
	interRes *Resource

	// pools and passes hold each query's current pass — its pool and its
	// admission at the head (nil once the last pass finished); byID maps
	// every head query ID back to its query's index.
	pools  []*jobs.Pool
	passes []*head.Query
	byID   map[int]int

	// nextSeq tracks, per (query, file), the chunk sequence number that
	// would continue a sequential read; lastFile tracks, per site, the
	// (query, file) the site served last. A fetch that switches files or
	// breaks a file's sequence pays the site's seek penalty.
	nextSeq  map[int]int
	lastFile map[int]int
	seeks    int

	workerSeq int // burst workers launched so far

	granted    []int
	iter       []int // completed passes, per query
	iterFinish [][]time.Duration
	finish     []time.Duration
	headBusyAt time.Duration
	finished   int
	err        error

	stage *stageState

	// Fault-plan state (fault.go): the simulator-side counts, and the
	// registry the head and the pools report into.
	fstats FaultStats
	reg    *obs.Registry

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

// Run executes a simulated experiment — the simulator's one event loop:
// every query is admitted at t=0 into an in-process head.Head running on
// the virtual clock, masters poll it for fair-share grants, commit to it,
// and ship each query's reduction object when the head's Done asks for it —
// while the other queries keep running.
func Run(cfg Config) (*Result, error) {
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
		egress:     make(map[int]*Resource),
		paths:      make(map[[2]int]*Resource),
		nextSeq:    make(map[int]int),
		lastFile:   make(map[int]int),
		pools:      make([]*jobs.Pool, nq),
		passes:     make([]*head.Query, nq),
		byID:       make(map[int]int),
		granted:    make([]int, nq),
		iter:       make([]int, nq),
		iterFinish: make([][]time.Duration, nq),
		finish:     make([]time.Duration, nq),
	}
	// The head and the pools report into the caller's registry — or, under a
	// fault plan without one, a private one, because FaultStats reads their
	// counters. Copy the queries so the caller's config is never mutated.
	s.reg = cfg.Obs.Metrics()
	if s.reg == nil && cfg.Faults.Active() {
		s.reg = obs.NewRegistry()
	}
	s.cfg.Queries = append([]Query(nil), cfg.Queries...)
	s.net = NewNetwork(s.clock)
	s.tr = cfg.Obs.Trace()
	s.tr.SetClock(obs.ClockFunc(s.clock.Now))
	if cfg.Obs != nil {
		cfg.Obs.Clock = obs.ClockFunc(s.clock.Now)
	}
	if cfg.Obs.Metrics() != nil {
		s.hRetrieval = obs.NewLocalHistogram(nil)
	}
	s.tr.NameProcess(0, "head")
	s.tr.NameThread(0, 0, "scheduler")
	if err := s.startHead(); err != nil {
		return nil, err
	}
	for qi := range s.cfg.Queries {
		q := &s.cfg.Queries[qi]
		if q.Index == nil {
			return nil, fmt.Errorf("hybridsim: query %d (%s) has no index", qi, q.Name)
		}
		if q.App.ComputeBytesPerSec <= 0 {
			return nil, fmt.Errorf("hybridsim: query %d (%s): App.ComputeBytesPerSec must be positive", qi, q.Name)
		}
		if q.PoolOpts.Metrics == nil {
			q.PoolOpts.Metrics = s.reg
		}
		if err := s.admit(qi); err != nil {
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
		if cfg.Elastic.Decide == nil || cfg.Elastic.Interval <= 0 {
			return nil, fmt.Errorf("hybridsim: Elastic needs a Decide hook and a positive Interval")
		}
		// Burst workers splice paths into the topology's map mid-run; clone
		// it so the caller's config is never mutated.
		paths := make(map[[2]int]PathModel, len(s.cfg.Topology.Paths))
		for k, v := range s.cfg.Topology.Paths {
			paths[k] = v
		}
		s.cfg.Topology.Paths = paths
		s.clock.After(cfg.Elastic.Interval, func() { s.elasticTick() })
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
		c.start("")
	}
	for s.err == nil && s.clock.Step() {
	}
	if s.err != nil {
		return nil, s.err
	}
	if s.finished < nq {
		return nil, fmt.Errorf("hybridsim: simulation stalled (%d/%d queries finished)", s.finished, nq)
	}
	res := s.result()
	s.report(res)
	return res, nil
}

// startHead builds the run's head on the virtual clock. Under a fault plan
// it gets the plan's Tuning and an in-memory checkpoint store (which also
// turns a lost master into a recoverable failure), and its failure detector
// and watchdogs tick every TickInterval of virtual time.
func (s *multiSim) startHead() error {
	plan := s.cfg.Faults
	hc := head.Config{
		ExpectClusters: len(s.cfg.Topology.Clusters),
		DynamicSites:   true,
		Obs:            &obs.Obs{Clock: obs.ClockFunc(s.clock.Now), Registry: s.reg},
	}
	if plan.Active() {
		hc.Tuning = plan.Tuning
		hc.Fault.Store = fault.NewMemStore()
	}
	h, err := head.New(hc)
	if err != nil {
		return err
	}
	s.head = h
	if every := h.TickInterval(); every > 0 {
		var tick func()
		tick = func() {
			if s.finished >= len(s.cfg.Queries) {
				return
			}
			h.Tick(s.clock.Now())
			s.afterFailure()
			s.clock.After(every, tick)
		}
		s.clock.After(every, tick)
	}
	return nil
}

// admit submits query qi's next pass to the head: one pool over the query's
// dataset, one Admit — as driver.Session.Iterate does live.
func (s *multiSim) admit(qi int) error {
	q := s.cfg.Queries[qi]
	pool, err := jobs.NewPool(q.Index, q.Placement, q.PoolOpts)
	if err != nil {
		return fmt.Errorf("hybridsim: query %d (%s): %w", qi, q.Name, err)
	}
	hq, err := s.head.Admit(head.QueryConfig{Pool: pool, Reducer: creditReducer{},
		Spec: protocol.JobSpec{App: q.App.Name}, Weight: q.Weight, Policy: q.Policy})
	if err != nil {
		return fmt.Errorf("hybridsim: query %d (%s): %w", qi, q.Name, err)
	}
	s.pools[qi], s.passes[qi] = pool, hq
	s.byID[hq.ID()] = qi
	return nil
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
	c := &mqCluster{s: s, model: cm, index: len(s.clusters), slowFactor: 1,
		core:      cluster.NewAgentCore(cm.Site, cm.Name, cm.Cores, s.cfg.Faults.Tuning.CheckpointEveryJobs),
		freeLanes: make([]int, 0, cm.RetrievalThreads), idleCores: make([]int, 0, cm.Cores),
		perQuery: make([]clusterQuery, len(s.cfg.Queries)), bytesBySite: make(map[int]int64)}
	c.freeAll()
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
	return c
}

// start brings up an incarnation of the cluster's agent — at boot (why ""),
// after a crash's restart, or after a fencing rejection. It registers with
// the head (which fails a previous incarnation whose lease has not lapsed
// yet), starts heartbeating and polls; each query's checkpoint comes back
// with its spec (ensure).
func (c *mqCluster) start(why string) {
	s := c.s
	if c.gone {
		return // drained before it came up
	}
	c.down = false
	if why != "" {
		s.fstats.Recoveries++
		if s.tr.Enabled() {
			s.tr.InstantAt(c.pid(), 0, "fault", why, s.clock.Now(), nil)
		}
	}
	if _, err := s.head.RegisterSite(c.core.Hello()); err != nil {
		s.err = err
		return
	}
	c.registered = true
	if s.afterFailure(); c.gone {
		return
	}
	c.heartbeat(c.epoch)
	c.poll()
}

// ensure fetches head query id's spec (query qi) at the incarnation's first
// grant or Done for it, as RunAgent.ensure does, and then ships the query's
// object if ship is set. A spec that carries a checkpoint resumes the query
// from it, and the agent waits on the head while the object moves. A fenced
// fetch ends the incarnation.
func (c *mqCluster) ensure(qi, id int, ship bool) {
	s := c.s
	if !slices.Contains(c.specs, id) {
		spec, err := s.head.QuerySpec(c.model.Site, id)
		if err != nil {
			c.failed(err)
			return
		}
		c.specs = append(c.specs, id)
		if len(spec.Checkpoint) > 0 {
			if _, err := c.core.Resume(id, spec.Checkpoint, decodeCredit); err != nil {
				s.err = err
				return
			}
			c.waits++
			epoch := c.epoch
			s.net.Start(s.cfg.Queries[qi].App.RobjBytes, s.robjLatency(c), 0, s.robjResources(c), func() {
				if c.epoch != epoch {
					return // died with the incarnation
				}
				if ship {
					c.ship(qi, id)
				}
				c.answered()
			})
			return
		}
	}
	if ship {
		c.ship(qi, id)
	}
}

// heartbeat renews the cluster's lease every Tuning.HeartbeatInterval while
// the incarnation lives and can reach the head.
func (c *mqCluster) heartbeat(epoch int) {
	s := c.s
	every := s.cfg.Faults.Tuning.HeartbeatInterval()
	if every <= 0 {
		return
	}
	s.clock.After(every, func() {
		if c.epoch != epoch || c.gone || s.finished >= len(s.cfg.Queries) {
			return
		}
		if !c.partitioned {
			s.head.Heartbeat(c.model.Site)
		}
		c.heartbeat(epoch)
	})
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

// allDrained reports whether every query is on its last pass and that
// pass's pool has nothing left to grant or commit.
func (s *multiSim) allDrained() bool {
	for qi, pool := range s.pools {
		if s.queryHasMorePasses(qi) || !pool.Drained() {
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

// batch is the job-group size a master requests per poll:
// max(RetrievalThreads/2, 4). (The live agent asks for max(Cores, 4).)
func (c *mqCluster) batch() int {
	return max(c.model.RetrievalThreads/2, 4)
}

// reachable reports whether the head's messages can get to the cluster.
func (c *mqCluster) reachable() bool {
	return c.registered && !c.gone && !c.down && !c.partitioned
}

// poll is the agent's shared master loop: one request serves every query,
// answered by the head's PollFrom one round trip later.
func (c *mqCluster) poll() {
	if c.requesting || c.exhausted || c.waits > 0 || !c.reachable() {
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
		if c.partitioned || c.waits > 0 {
			return // reply cut off, or not sent; the heal or the answer polls again
		}
		n := c.answer(s.head.PollFrom(protocol.PollRequest{Site: c.model.Site, N: c.batch()}))
		if c.epoch != epoch || c.gone || s.err != nil {
			return
		}
		if n > 0 {
			c.kickRetrievers()
			return
		}
		if !c.draining && s.allDrained() {
			c.exhausted = true
			return
		}
		// Empty but undrained somewhere: poll again after pollEvery (the live
		// agent parks its poll at the head instead). New grants can appear
		// when another cluster drains a shared pool, a failure requeues work
		// or speculation re-adds it; a draining cluster polls on until the
		// head answers Drain.
		s.clock.After(s.pollEvery(), func() {
			if c.epoch == epoch {
				c.poll()
			}
		})
	})
}

// answer acts on one poll reply: grants join the queue, each Done notice
// ships that query's object, Drain completes a decommission, and a fencing
// rejection re-registers. The first grant or Done for a query fetches its
// spec. It returns the number of jobs granted.
func (c *mqCluster) answer(rep protocol.PollReply, err error) int {
	s := c.s
	if err != nil {
		c.failed(err)
		return 0
	}
	n, epoch := 0, c.epoch
	for _, qj := range rep.Queries {
		qi := s.byID[qj.Query]
		if c.ensure(qi, qj.Query, false); c.epoch != epoch || s.err != nil {
			return 0 // fenced, or the run failed: the rest of the reply is dropped
		}
		for _, j := range qj.Jobs {
			c.queue = append(c.queue, mqJob{query: qi, id: qj.Query, job: j})
		}
		n += len(qj.Jobs)
		s.granted[qi] += len(qj.Jobs)
		if s.tr.Enabled() {
			// One head-side grant span per (poll, query), stamped at the
			// virtual instant the head issued the grant (half an RTT ago).
			grantT := s.clock.Now() - s.cfg.Topology.ControlLatency
			if grantT < 0 {
				grantT = 0
			}
			ids := make([]int, len(qj.Jobs))
			for i, j := range qj.Jobs {
				ids[i] = j.ID
			}
			s.tr.Complete(0, 0, "scheduling", "grant", grantT, grantT, obs.Args{
				"trace": mqTraceID(qi), "query": qi, "site": c.model.Site, "jobs": ids})
		}
	}
	for _, id := range rep.Done {
		if c.ensure(s.byID[id], id, true); c.epoch != epoch || s.err != nil {
			return 0
		}
	}
	if rep.Drain {
		c.depart()
	}
	return n
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
	if c.down || c.partitioned || c.waits > 0 {
		return false // no path to any storage site, or waiting on the head
	}
	if len(c.ready)+c.inFlight >= c.model.QueueDepth {
		return false // back-pressure: slave memory full
	}
	if len(c.queue) == 0 {
		c.poll()
		return false
	}
	mj := c.queue[0]
	c.queue = c.queue[1:]
	c.poll() // queue diminished; maybe request more
	s := c.s
	j := mj.job
	var resources []*Resource
	var latency time.Duration
	var perStream float64
	// A cache-eligible read checks the burst-side replica first: a hit is
	// served at the replica's cloud-local rates instead of drawing origin
	// egress across the WAN; a miss travels the normal path and deposits the
	// chunk in the replica on the way past (read-through).
	sKey := stageKey{query: mj.query, site: j.Site, file: j.Ref.File, seq: j.Ref.Seq}
	cached := s.stage != nil && s.stage.eligible(c) && s.stage.cacheable(j.Site)
	stageHit := false
	if cached {
		_, stageHit = s.stage.resident[sKey]
		s.stage.recordRead(s.iter[mj.query], stageHit, j.Ref.Size)
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
			key := mj.query<<20 | j.Ref.File
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
			args := obs.Args{"trace": mqTraceID(mj.query), "query": mj.query, "file": j.Ref.File,
				"seq": j.Ref.Seq, "site": j.Site, "bytes": j.Ref.Size, "stolen": j.Site != c.model.Site}
			if stageHit {
				args["staged"] = true
			}
			s.tr.Complete(c.pid(), lane, "retrieval", fmt.Sprintf("job %d", j.ID), start, end, args)
		}
		c.ready = append(c.ready, mj)
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
		mj := c.ready[0]
		c.ready = c.ready[1:]
		c.busyCores++
		// A buffer slot freed: retrieval lanes may resume.
		c.kickRetrievers()
		c.process(core, mj)
	}
}

// process models one core crunching one chunk at the owning query's rate,
// with a deterministic per-(cluster, query, job) jitter in [1-J, 1+J].
func (c *mqCluster) process(core int, mj mqJob) {
	s := c.s
	q := mj.query
	h := splitmix64(s.cfg.Seed ^ uint64(c.index)<<32 ^ uint64(mj.job.ID) ^ uint64(q)<<48)
	jit := 1.0
	if c.model.Jitter > 0 {
		u := float64(h>>11) / float64(1<<53)
		jit = 1 - c.model.Jitter + 2*c.model.Jitter*u
	}
	rate := s.cfg.Queries[q].App.ComputeBytesPerSec * c.model.CoreSpeed * jit
	if c.slowFactor > 1 {
		rate /= c.slowFactor // an injected mid-run degradation
	}
	d := time.Duration(float64(mj.job.Ref.Size) / rate * float64(time.Second))
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
			s.tr.Complete(c.pid(), c.coreTid(core), "processing", fmt.Sprintf("job %d", mj.job.ID),
				start, st.lastFold, obs.Args{"trace": mqTraceID(q), "query": q,
					"bytes": mj.job.Ref.Size, "stolen": mj.job.Site != c.model.Site})
		}
		// A partitioned agent cannot reach the head, and a waiting one
		// commits nothing until the head has answered.
		if c.partitioned || c.waits > 0 {
			c.deferred = append(c.deferred, mj)
		} else {
			c.commit(mj)
		}
		if c.epoch != epoch {
			return // the commit was fenced and the agent restarted
		}
		c.kickCores()
		c.kickRetrievers()
	})
}

// commit reports one fold to the head on a commit poll, as the live agent
// commits a mid-batch group. A duplicate — another copy already committed,
// or the pass is over — is discarded; a first commit joins the cluster's
// reduction object, and checkpoints it when the core says one is due. The
// commit that drains a pool is followed at the same instant by an empty
// poll from every reachable cluster not waiting on the head: the live
// agents' parked polls, woken by the drain, which deliver the head's Done.
func (c *mqCluster) commit(mj mqJob) {
	s := c.s
	if s.err != nil {
		return
	}
	c.commits[0] = protocol.JobsDone{Site: c.model.Site, Query: mj.id, Jobs: append(c.commits[0].Jobs[:0], mj.job)}
	rep, err := s.head.PollInto(protocol.PollRequest{Site: c.model.Site, Commits: c.commits[:]}, c.acks)
	c.acks = rep.Acks
	dups, err := head.CommitAck(rep, err)
	if err != nil {
		c.failed(err)
		return
	}
	if !c.core.Committed(mj.id, mj.job, len(dups) > 0) {
		s.fstats.DupCommits++
	} else if c.core.CheckpointDue(mj.id) {
		c.checkpoint(mj.query, mj.id)
	}
	if hq := s.passes[mj.query]; hq != nil && hq.ID() == mj.id && s.pools[mj.query].Drained() {
		for _, o := range s.clusters {
			if o.reachable() && o.waits == 0 {
				o.answer(s.head.PollFrom(protocol.PollRequest{Site: o.model.Site}))
			}
		}
	}
}

// queryHasMorePasses reports whether the query re-reads its dataset again
// after the pass currently in flight.
func (s *multiSim) queryHasMorePasses(q int) bool {
	return s.iter[q]+1 < s.cfg.Queries[q].Iterations
}

// ship answers the head's Done for head query id (query qi): the cluster's
// object goes to the head — free for the cluster hosting the head, over the
// shared inter-cluster pipe otherwise — and queues its merge, and the agent
// waits on the head until the merge is answered. The agent forgets the
// object once it is sent; a crash mid-transfer loses it.
func (c *mqCluster) ship(qi, id int) {
	s := c.s
	res := c.core.Ship(id, nil)
	c.waits++
	// A simulated object is the credit it carries.
	res.Object = encodeCredit(stats.JobAccounting{Local: res.LocalJobs, Stolen: res.StolenJobs})
	app := s.cfg.Queries[qi].App
	if c.index == s.cfg.Topology.HeadCluster {
		s.robjMerged(c, qi, res)
		return
	}
	start := s.clock.Now()
	epoch := c.epoch
	s.net.Start(app.RobjBytes, s.cfg.Topology.InterClusterLatency, 0, s.robjResources(c), func() {
		if c.epoch != epoch {
			return // the sender crashed; the head reissues what the object held
		}
		if s.tr.Enabled() {
			s.tr.Complete(c.pid(), 0, "reduction", "robj-transfer", start, s.clock.Now(),
				obs.Args{"trace": mqTraceID(qi), "query": qi, "bytes": app.RobjBytes})
		}
		s.robjMerged(c, qi, res)
	})
}

// robjMerged serializes one reduction-object merge on the head's CPU and
// submits the object to the head when the merge is done. The head's answer
// reaches the sender only if its incarnation still lives.
func (s *multiSim) robjMerged(c *mqCluster, qi int, res protocol.ReductionResult) {
	epoch := c.epoch
	mergeStart := s.clock.Now()
	if mergeStart < s.headBusyAt {
		mergeStart = s.headBusyAt
	}
	s.headBusyAt = mergeStart + s.cfg.Queries[qi].App.mergeTime()
	s.clock.At(s.headBusyAt, func() {
		if s.tr.Enabled() {
			s.tr.Complete(0, 0, "reduction", "merge robj", mergeStart, s.clock.Now(),
				obs.Args{"trace": mqTraceID(qi), "query": qi})
		}
		err := s.head.SubmitQueryResult(res)
		switch {
		case err == nil:
			st := &c.perQuery[qi]
			st.jobs.Local += res.LocalJobs
			st.jobs.Stolen += res.StolenJobs
		case !fault.IsFenced(err):
			s.err = err
			return
		case c.epoch == epoch:
			// The head failed the sender before the merge and reissued the
			// object's jobs.
			c.failed(err)
			return
		}
		if c.epoch == epoch {
			c.answered()
		}
		s.settle()
	})
}

// answered ends one wait on the head. Once the head has answered every call
// the agent waited on, it commits what its cores folded meanwhile, as after a
// partition, then polls and retrieves again.
func (c *mqCluster) answered() {
	if c.waits--; c.waits > 0 || c.partitioned {
		return // still waiting, or cut off: the last answer or the heal goes on
	}
	epoch := c.epoch
	if c.flush(); c.epoch != epoch || c.waits > 0 {
		return
	}
	c.poll()
	c.kickRetrievers()
}

// settle finishes every pass the head has completed: the query's next pass
// is admitted (the polling masters pick its grants up on their next round
// trip), or the query is over.
func (s *multiSim) settle() {
	for qi, hq := range s.passes {
		if hq == nil {
			continue
		}
		select {
		case <-hq.Done():
		default:
			continue
		}
		obj, _, _, err := hq.Wait(context.Background())
		if err != nil {
			s.err = err
			return
		}
		now := s.clock.Now()
		q := s.cfg.Queries[qi]
		// Exactly one credit per chunk per pass: a merged object that holds
		// any other count would publish a wrong table, so it ends the run.
		if cr := obj.(*stats.JobAccounting); cr.Local+cr.Stolen != q.Index.NumChunks() {
			s.err = fmt.Errorf("hybridsim: query %d (%s) pass %d credited %d of %d chunks",
				qi, q.Name, s.iter[qi]+1, cr.Local+cr.Stolen, q.Index.NumChunks())
			return
		}
		s.iter[qi]++
		if q.Iterations > 1 {
			s.iterFinish[qi] = append(s.iterFinish[qi], now)
		}
		if s.iter[qi] < q.Iterations {
			if err := s.admit(qi); err != nil {
				s.err = err
				return
			}
			if s.tr.Enabled() {
				s.tr.InstantAt(0, 0, "run", fmt.Sprintf("query %d pass %d done", qi, s.iter[qi]),
					now, obs.Args{"trace": mqTraceID(qi), "query": qi})
			}
			continue
		}
		s.passes[qi] = nil
		s.finish[qi] = now
		s.finished++
		if s.tr.Enabled() {
			s.tr.InstantAt(0, 0, "run", fmt.Sprintf("query %d finished", qi), now,
				obs.Args{"trace": mqTraceID(qi), "query": qi})
		}
	}
}

// result assembles the run's outcome from the per-cluster accumulators.
func (s *multiSim) result() *Result {
	res := &Result{Seeks: s.seeks, Faults: s.faultStats()}
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
		var busy, lastFold time.Duration
		for _, st := range c.perQuery {
			total.Local += st.jobs.Local
			total.Stolen += st.jobs.Stolen
			busy += st.coreBusy
			lastFold = max(lastFold, st.lastFold)
		}
		proc := busy / time.Duration(c.model.Cores)
		res.Clusters = append(res.Clusters, ClusterResult{
			Name:     c.model.Name,
			Site:     c.model.Site,
			Cores:    c.model.Cores,
			Burst:    c.burst,
			Launched: c.launched,
			Drained:  c.drainedAt,
			Jobs:     total,
			Breakdown: stats.Breakdown{Processing: proc, Retrieval: lastFold - proc,
				Sync: res.Total - lastFold},
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
func (s *multiSim) report(res *Result) {
	if reg := s.cfg.Obs.Metrics(); reg != nil {
		for _, c := range res.Clusters {
			reg.Counter("sim_jobs_local_total").Add(int64(c.Jobs.Local))
			reg.Counter("sim_jobs_stolen_total").Add(int64(c.Jobs.Stolen))
			for site, n := range c.BytesBySite {
				reg.Counter(fmt.Sprintf("sim_retrieved_bytes_site%d", site)).Add(n)
			}
		}
		reg.Counter("sim_seeks_total").Add(int64(s.seeks))
		reg.Histogram("sim_retrieval_seconds", nil).Merge(s.hRetrieval)
		if s.cfg.Faults.Active() {
			f := res.Faults
			// Reissues, speculation, flags and checkpoints are already in the
			// registry as the pools' and the head's own counters.
			reg.Counter("sim_fault_crashes_total").Add(int64(f.Crashes))
			reg.Counter("sim_fault_recoveries_total").Add(int64(f.Recoveries))
			reg.Counter("sim_dup_commits_total").Add(int64(f.DupCommits))
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

// creditReducer is the head-side reducer of a simulated query. The
// simulator moves an object's size, not its data, so the object it encodes
// is the credit it carries — the local and stolen jobs folded into it — and
// merging two objects adds their credits.
type creditReducer struct{}

func (creditReducer) NewObject() core.Object                { return &stats.JobAccounting{} }
func (creditReducer) LocalReduce(core.Object, []byte) error { return nil }
func (creditReducer) Encode(o core.Object) ([]byte, error) {
	return encodeCredit(*o.(*stats.JobAccounting)), nil
}
func (creditReducer) Decode(data []byte) (core.Object, error) {
	a, err := decodeCredit(data)
	if err != nil {
		return nil, err
	}
	return &a, nil
}

func (creditReducer) GlobalReduce(dst, src core.Object) error {
	d, s := dst.(*stats.JobAccounting), src.(*stats.JobAccounting)
	d.Local += s.Local
	d.Stolen += s.Stolen
	return nil
}

// encodeCredit and decodeCredit are the wire form of a credit object: two
// little-endian uint64s.
func encodeCredit(a stats.JobAccounting) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, uint64(a.Local))
	binary.LittleEndian.PutUint64(b[8:], uint64(a.Stolen))
	return b
}

func decodeCredit(b []byte) (stats.JobAccounting, error) {
	if len(b) != 16 {
		return stats.JobAccounting{}, fmt.Errorf("hybridsim: credit object is %d bytes, want 16", len(b))
	}
	return stats.JobAccounting{Local: int(binary.LittleEndian.Uint64(b)),
		Stolen: int(binary.LittleEndian.Uint64(b[8:]))}, nil
}

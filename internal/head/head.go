// Package head implements the framework's head node: a long-lived
// multi-query scheduler. Each admitted query brings its own job pool
// (index × placement) and reducer; the head hands jobs from every active
// query to requesting cluster masters by weighted fair share (local jobs
// first, then stolen remote jobs), keeps per-query reduction state
// isolated, and — as each query's last expected cluster reports — combines
// that query's reduction objects into its final result.
//
// Masters register once and hold one wire session while interleaving jobs
// from many queries; a single-query run is a session with one Admit.
package head

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/chunk"
	"repro/internal/config"
	"repro/internal/elastic"
	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/stats"
	"repro/internal/transport"
)

// ClusterReport is what the head learns about one cluster's part in a
// query: its measured time decomposition and job accounting, as delivered
// with the cluster's reduction object.
type ClusterReport struct {
	Site      int
	Cluster   string
	Cores     int
	Breakdown stats.Breakdown
	Jobs      stats.JobAccounting
}

// Config parameterizes a head node.
type Config struct {
	// ExpectClusters is how many masters may register; all-masters-rule
	// queries (QueryConfig.ExpectAll) also wait for this many reduction
	// results. Required.
	ExpectClusters int
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
	// Obs, when non-nil, receives head-side metrics (grant/steal counters,
	// global-reduction latency) and — if its tracer is enabled — lifecycle
	// events on trace pid 0. The head also reads its Clock for grTime, so a
	// simulator-supplied virtual clock keeps all reported times consistent.
	Obs *obs.Obs
	// Tuning holds the knobs shared with the cluster runtimes and the
	// driver: lease TTL, heartbeat cadence, speculation delay (the fault
	// knobs that used to live on FaultConfig), wire codec, and so on.
	Tuning config.Tuning
	// Fault enables checkpoint intake and recovery persistence. Lease
	// expiry and speculation are governed by Tuning; the zero value of both
	// keeps the original fail-fast behaviour.
	Fault FaultConfig
	// DynamicSites lifts the ExpectClusters registration cap so elastically
	// provisioned burst workers can join a live session. ExpectClusters then
	// only sizes ExpectAll completion; dynamic sites must be admitted
	// into queries' contributor sets by doing work (committing jobs), and are
	// removed with DrainSite.
	DynamicSites bool
}

// Head schedules admitted queries over registered masters. Create with New,
// expose it to masters either over sockets (Serve) or in-process (the
// RegisterSite/Poll/... methods), admit queries with Admit, then wait on
// each Query.
type Head struct {
	cfg Config

	mu        sync.Mutex
	clusters  map[int]string // site -> cluster name (registered)
	draining  map[int]chan struct{}
	departed  map[int]bool // sites that completed a graceful drain (terminal)
	queries   map[int]*Query
	order     []int // admission order, for deterministic iteration
	nextQuery int
	shutdown  bool
	// wake is closed and replaced (notifyLocked) whenever the answer to a
	// held poll may have changed; PollFrom captures it before evaluating.
	wake chan struct{}

	fair *jobs.FairShare

	// defaultPolicy seeds QueryConfig.Policy for queries admitted without
	// one: the first Hello.Policy seen. Guarded by mu.
	defaultPolicy *elastic.Policy

	// done closes when the head stops serving: on Shutdown or a fatal
	// failure. It stops Serve and the failure monitor.
	done     chan struct{}
	doneOnce sync.Once

	// fs is the fault-recovery state; nil when fault tolerance is off.
	fs *faultState

	lnMu     sync.Mutex
	listener net.Listener
	closed   bool
	connWG   sync.WaitGroup

	// Observability handles (nil-safe no-ops when cfg.Obs is nil).
	clk          obs.Clock
	tr           *obs.Tracer
	mGrants      *obs.Counter
	mJobsGranted *obs.Counter
	mExhausted   *obs.Counter
	mResults     *obs.Counter
	hGlobalRed   *obs.Histogram
	// hParkEvent and hParkExpiry time held polls by how they ended
	// (head_poll_park_seconds{end}).
	hParkEvent  *obs.Histogram
	hParkExpiry *obs.Histogram

	// nextSpan mints head-side span IDs for grant TraceContexts.
	nextSpan atomic.Uint64
}

// nextSpanID returns a fresh non-zero span ID.
func (h *Head) nextSpanID() uint64 { return h.nextSpan.Add(1) }

// New validates cfg and returns a head node ready to serve masters.
func New(cfg Config) (*Head, error) {
	if cfg.ExpectClusters <= 0 {
		return nil, fmt.Errorf("head: ExpectClusters must be positive, got %d", cfg.ExpectClusters)
	}
	if err := cfg.Tuning.Validate(); err != nil {
		return nil, fmt.Errorf("head: %w", err)
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	reg := cfg.Obs.Metrics()
	h := &Head{
		cfg:          cfg,
		clusters:     make(map[int]string),
		draining:     make(map[int]chan struct{}),
		departed:     make(map[int]bool),
		queries:      make(map[int]*Query),
		wake:         make(chan struct{}),
		fair:         jobs.NewFairShare(),
		done:         make(chan struct{}),
		clk:          cfg.Obs.ClockOrWall(),
		tr:           cfg.Obs.Trace(),
		mGrants:      reg.Counter("head_job_grants_total"),
		mJobsGranted: reg.Counter("head_jobs_granted_total"),
		mExhausted:   reg.Counter("head_pool_exhausted_total"),
		mResults:     reg.Counter("head_results_total"),
		hGlobalRed:   reg.Histogram("head_global_reduce_seconds", nil),
		hParkEvent:   reg.Histogram("head_poll_park_seconds", nil, "end", "event"),
		hParkExpiry:  reg.Histogram("head_poll_park_seconds", nil, "end", "expiry"),
	}
	h.tr.NameProcess(0, "head")
	h.tr.NameThread(0, 0, "global-reduction")
	h.initFault()
	return h, nil
}

// notifyLocked wakes every held poll to re-evaluate its answer. Call it
// wherever a site's reply can stop being empty: new or requeued jobs, a
// drained pool (Done falls due), a cancel, a drain order, shutdown. Caller
// holds h.mu.
func (h *Head) notifyLocked() {
	close(h.wake)
	h.wake = make(chan struct{})
}

// markDone closes the head's lifetime channel exactly once.
func (h *Head) markDone() {
	h.doneOnce.Do(func() { close(h.done) })
}

// registerSite records a master's Hello, handling the recovery side effects
// of a re-registration. It reports whether the site was already known.
func (h *Head) registerSite(hello protocol.Hello) (known bool, err error) {
	h.mu.Lock()
	_, known = h.clusters[hello.Site]
	if !known && len(h.clusters) >= h.cfg.ExpectClusters && !h.cfg.DynamicSites {
		h.mu.Unlock()
		return false, opErr("register", hello.Site, -1,
			fmt.Errorf("already have %d clusters: %w", h.cfg.ExpectClusters, ErrTooManyClusters))
	}
	if known && h.fs == nil {
		h.mu.Unlock()
		return false, opErr("register", hello.Site, -1, ErrAlreadyRegistered)
	}
	h.clusters[hello.Site] = hello.Cluster
	// An explicit re-registration readmits the site ID: the departure fence
	// only guards against a zombie incarnation that never said Hello again.
	delete(h.departed, hello.Site)
	if h.defaultPolicy == nil && !hello.Policy.Zero() {
		// First policied Hello: adopt it as the session default so later
		// policy-free admissions inherit it.
		p := elastic.Policy{
			Deadline:   hello.Policy.Deadline,
			Budget:     hello.Policy.Budget,
			MinWorkers: hello.Policy.MinWorkers,
			MaxWorkers: hello.Policy.MaxWorkers,
		}
		if elastic.ValidateQueryPolicy(p) == nil {
			h.defaultPolicy = &p
			h.cfg.Logf("head: adopted session-default policy from site %d (deadline %v, budget $%.4f)",
				hello.Site, p.Deadline, p.Budget)
		}
	}
	nClusters := len(h.clusters)
	h.mu.Unlock()
	// Merged-trace convention: the head is pid 0 and site s's shipped spans
	// land on pid s+1, jobs on tid 1 and retrievals on tid 2 (the agent's
	// WireSpan TIDs). Naming is setup, recorded even while disabled.
	h.tr.NameProcess(hello.Site+1, fmt.Sprintf("site %d (%s)", hello.Site, hello.Cluster))
	h.tr.NameThread(hello.Site+1, 1, "jobs")
	h.tr.NameThread(hello.Site+1, 2, "retrieval")

	if known {
		// Re-registration: make sure the dead incarnation's work went back
		// to the pools (a restart can beat the failure detector), then
		// revive the lease for the new incarnation.
		h.FailSite(hello.Site)
		h.fs.leases.Revive(hello.Site, h.clk.Now())
		h.fs.mRecoveries.Inc()
		h.cfg.Logf("head: cluster %q re-registered (site %d)", hello.Cluster, hello.Site)
		if h.tr.Enabled() {
			h.tr.Instant(0, 0, "fault", fmt.Sprintf("recover site %d", hello.Site),
				obs.Args{"site": hello.Site})
		}
		return true, nil
	}
	if h.fs != nil {
		h.fs.leases.Renew(hello.Site, h.clk.Now())
	}
	h.cfg.Logf("head: cluster %q registered (site %d, %d cores)", hello.Cluster, hello.Site, hello.Cores)
	h.cfg.Obs.Metrics().Gauge("head_clusters_registered").Set(int64(nClusters))
	if h.tr.Enabled() {
		h.tr.Instant(0, 0, "lifecycle", fmt.Sprintf("register %s", hello.Cluster),
			obs.Args{"site": hello.Site, "cores": hello.Cores})
	}
	return false, nil
}

// RegisterSite opens a multi-query session for a master: one registration
// covering every admitted query. Per-query specs are fetched with QuerySpec
// as queries first appear in a PollReply. With fault tolerance enabled, a
// site re-registering after a failure is a recovery: the head requeues
// whatever the dead incarnation still held and revives the lease; the new
// incarnation resumes each query from its last persisted checkpoint
// (carried in the QuerySpec it re-fetches).
func (h *Head) RegisterSite(hello protocol.Hello) (protocol.SiteSpec, error) {
	if _, err := h.registerSite(hello); err != nil {
		return protocol.SiteSpec{}, err
	}
	spec := protocol.SiteSpec{
		HeartbeatEvery: int64(h.cfg.Tuning.HeartbeatInterval()),
	}
	// Trace negotiation: a master that can propagate trace context adverts a
	// non-zero Hello.Trace; the head confirms with a non-zero SiteSpec.Trace
	// iff its tracer is live. Only after this exchange does either side put
	// trace data on the wire, so sessions with an old peer stay bit-identical
	// to the pre-trace protocol.
	if h.tr.Enabled() && !hello.Trace.Zero() {
		spec.Trace = protocol.TraceContext{TraceID: uint64(hello.Site) + 1, SpanID: 1}
	}
	return spec, nil
}

// errFenced is the refusal a dead-marked site's traffic gets.
func errFenced(site int) error {
	return fmt.Errorf("rejecting site %d: %w", site, fault.ErrFenced)
}

// fencedCheck rejects traffic from a site the head has declared failed. A
// dead-marked site's lease is no longer tracked and its contributions were
// handed out for recomputation, so granting it jobs or accepting its commits
// would lose work or double-count it; the incarnation must re-register.
func (h *Head) fencedCheck(site int) error {
	if h.fs != nil && h.fs.leases.Dead(site) {
		return errFenced(site)
	}
	// A drained site's departure is just as terminal: its lease is released
	// and burst site IDs are never reused, so a zombie incarnation polling
	// after departure must not be granted work.
	h.mu.Lock()
	gone := h.departed[site]
	h.mu.Unlock()
	if gone {
		return fmt.Errorf("rejecting site %d: departed after drain", site)
	}
	return nil
}

// SiteLost reports that a master's session ended unexpectedly. With fault
// tolerance on, the site's work is requeued and the queries live on for a
// restarted replacement; without it, every active query fails (the original
// fail-fast contract). After the head has stopped it is a no-op.
func (h *Head) SiteLost(site int, err error) {
	select {
	case <-h.done:
		return
	default:
	}
	if h.fs != nil {
		h.cfg.Logf("head: lost master for site %d: %v", site, err)
		h.FailSite(site)
		return
	}
	h.fail(opErr("session", site, -1, fmt.Errorf("lost master: %w", err)))
}

// Sites returns the currently registered site IDs, sorted — departed
// (drained) sites are absent. External elasticity advisors use it to track
// dynamic registrations.
func (h *Head) Sites() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]int, 0, len(h.clusters))
	for site := range h.clusters {
		out = append(out, site)
	}
	sort.Ints(out)
	return out
}

// QueryLoads snapshots every active query's share of the remaining work in
// the arbiter's input shape: query ID, fair-share weight, the policy it was
// admitted under, and its uncommitted bytes keyed by hosting site. Queries
// with nothing left (or finished/canceled ones) are omitted, mirroring the
// simulator's per-tick load slice, so the same arbiter drives both.
func (h *Head) QueryLoads() []elastic.QueryLoad {
	h.mu.Lock()
	defer h.mu.Unlock()
	var loads []elastic.QueryLoad
	for _, id := range h.order {
		q := h.queries[id]
		if q.finished || q.canceled {
			continue
		}
		rem := q.pool.RemainingBytesBySite()
		var total int64
		for _, b := range rem {
			total += b
		}
		if total <= 0 {
			continue
		}
		loads = append(loads, elastic.QueryLoad{
			Query: id, Weight: q.weight, Policy: q.Policy(), Remaining: rem,
		})
	}
	return loads
}

// DrainSite starts a graceful decommission of a registered site. The head
// stops granting the site jobs; on its subsequent polls the site finishes
// whatever it already holds, submits its reduction object for every query it
// contributed to, and is then told to leave (PollReply.Drain). The returned
// channel closes when the departure completes — the site's final folds are
// in, its lease is released, and the registration is gone. Draining is
// idempotent: a second call returns the same channel.
func (h *Head) DrainSite(site int) (<-chan struct{}, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.clusters[site]; !ok {
		return nil, opErr("drain", site, -1, errors.New("site not registered"))
	}
	if ch, ok := h.draining[site]; ok {
		return ch, nil
	}
	ch := make(chan struct{})
	h.draining[site] = ch
	h.notifyLocked()
	h.cfg.Logf("head: draining site %d", site)
	if h.tr.Enabled() {
		h.tr.Instant(0, 0, "elastic", fmt.Sprintf("drain site %d", site), obs.Args{"site": site})
	}
	return ch, nil
}

// departLocked completes a drain: the site's registration and lease go away
// and drain waiters are released. Caller holds h.mu.
func (h *Head) departLocked(site int) {
	delete(h.clusters, site)
	h.departed[site] = true
	if ch, ok := h.draining[site]; ok {
		close(ch)
		delete(h.draining, site)
	}
	if h.fs != nil {
		h.fs.leases.Release(site)
	}
	h.cfg.Obs.Metrics().Gauge("head_clusters_registered").Set(int64(len(h.clusters)))
	h.cfg.Logf("head: site %d departed", site)
	if h.tr.Enabled() {
		h.tr.Instant(0, 0, "elastic", fmt.Sprintf("depart site %d", site), obs.Args{"site": site})
	}
}

// fail aborts every active query with err and stops the head.
func (h *Head) fail(err error) {
	h.mu.Lock()
	for _, id := range h.order {
		if q := h.queries[id]; !q.finished {
			q.failLocked(err)
		}
	}
	h.mu.Unlock()
	h.markDone()
}

// ---------------------------------------------------------------------------
// Socket service.

// Serve accepts master connections on l until the head stops or Close is
// called. It blocks; run it in a goroutine.
func (h *Head) Serve(l net.Listener) error {
	h.lnMu.Lock()
	if h.closed {
		h.lnMu.Unlock()
		return errors.New("head: closed")
	}
	h.listener = l
	h.lnMu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			h.lnMu.Lock()
			closed := h.closed
			h.lnMu.Unlock()
			if closed {
				return nil
			}
			select {
			case <-h.done:
				return nil
			default:
			}
			return err
		}
		h.connWG.Add(1)
		go func() {
			defer h.connWG.Done()
			h.HandleConn(transport.New(c))
		}()
	}
}

// Close stops the listener and waits for connection handlers.
func (h *Head) Close() error {
	h.lnMu.Lock()
	h.closed = true
	l := h.listener
	h.lnMu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	h.connWG.Wait()
	return err
}

// HandleConn speaks the master protocol on one connection: Hello →
// SiteSpec, then PollRequest/QuerySpecRequest/JobsDone/CheckpointSave
// interleaved across queries, with each ReductionResult acknowledged by a
// ResultAck so the master keeps serving its remaining queries. Only
// ProtoMulti sessions are accepted — a Hello with an older Proto is answered
// with an ErrorReply naming the upgrade. Sessions default to the binary codec: a
// gob Hello is refused unless this head was started with -wire-codec=gob.
// Exported so in-process deployments can drive a head over transport.Pipe.
func (h *Head) HandleConn(c *transport.Conn) {
	defer c.Close()
	site := -1
	upgraded := false
	for {
		msg, err := c.Recv()
		if err != nil {
			if site >= 0 {
				h.SiteLost(site, err)
			}
			return
		}
		switch m := msg.(type) {
		case protocol.Hello:
			if m.Proto < protocol.ProtoMulti {
				_ = c.Send(protocol.ErrorReply{Err: "head: single-query wire sessions were retired; " +
					"upgrade the master to the multi-query protocol (ProtoMulti)"})
				return
			}
			// Wire-codec negotiation. The binary codec is the default: a
			// master advertising it is upgraded after the SiteSpec reply
			// (which still travels in the codec the Hello arrived in). Gob
			// is opt-in — a Hello without the binary advert is refused
			// unless this head itself was pinned to gob (-wire-codec=gob),
			// and a gob-pinned head never upgrades anyone. A fenced master
			// may re-Hello on the same session to recover; the codec stays
			// whatever was negotiated first.
			if m.Codec < protocol.WireBinary && !upgraded && !h.cfg.Tuning.UseGob() {
				_ = c.Send(protocol.ErrorReply{Err: "head: gob wire sessions are opt-in; " +
					"start both peers with -wire-codec=gob or upgrade the master to the binary codec"})
				return
			}
			upgrade := m.Codec >= protocol.WireBinary && !upgraded && !h.cfg.Tuning.UseGob()
			site = m.Site
			spec, err := h.RegisterSite(m)
			if err != nil {
				_ = c.Send(protocol.ErrorReply{Err: err.Error(), Code: ErrCode(err)})
				return
			}
			if upgrade {
				spec.Codec = protocol.WireBinary
			}
			if err := c.Send(spec); err != nil {
				return
			}
			if upgrade {
				c.UpgradeSend(transport.CodecBinary)
				c.UpgradeRecv(transport.CodecBinary)
				upgraded = true
			}
			codec := config.CodecGob
			if upgraded {
				codec = config.CodecBinary
			}
			h.cfg.Obs.Metrics().Counter("head_sessions_total", "codec", codec).Inc()
		case protocol.PollRequest:
			rep, err := h.PollFrom(m)
			if err != nil {
				_ = c.Send(protocol.ErrorReply{Err: err.Error(), Code: ErrCode(err)})
				continue // query- and fence-scoped; the master decides
			}
			if err := c.Send(rep); err != nil {
				return
			}
		case protocol.QuerySpecRequest:
			spec, err := h.QuerySpec(m.Site, m.Query)
			if err != nil {
				_ = c.Send(protocol.ErrorReply{Err: err.Error(), Code: ErrCode(err)})
				continue
			}
			if err := c.Send(spec); err != nil {
				return
			}
		case protocol.JobsDone:
			dups, err := h.CompleteQueryJobs(m.Query, m.Site, m.Jobs)
			ack := protocol.JobsDoneAck{Dup: dups}
			if err != nil {
				h.cfg.Logf("head: completion error from site %d: %v", m.Site, err)
				ack.Err = err.Error()
				ack.Code = ErrCode(err)
			}
			if err := c.Send(ack); err != nil {
				return
			}
		case protocol.Heartbeat:
			h.Heartbeat(m.Site) // fire-and-forget: no reply
		case protocol.CheckpointSave:
			ack := protocol.CheckpointAck{}
			if err := h.CheckpointSave(m); err != nil {
				ack.Err = err.Error()
				ack.Code = ErrCode(err)
			}
			if err := c.Send(ack); err != nil {
				return
			}
		case protocol.ReductionResult:
			ack := protocol.ResultAck{}
			if err := h.SubmitQueryResult(m); err != nil {
				ack.Err = err.Error()
				ack.Code = ErrCode(err)
			}
			if err := c.Send(ack); err != nil {
				return
			}
		default:
			_ = c.Send(protocol.ErrorReply{Err: fmt.Sprintf("head: unexpected message %T", msg)})
			return
		}
	}
}

// EncodeIndexSpec is a helper for building a job spec: it serializes ix
// into spec.Index.
func EncodeIndexSpec(spec *protocol.JobSpec, ix *chunk.Index) error {
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		return err
	}
	spec.Index = buf.Bytes()
	return nil
}

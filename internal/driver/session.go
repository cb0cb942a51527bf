package driver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/elastic"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// Session is a running deployment accepting concurrent queries. Submit
// admits a query and returns immediately; each Query is waited on (or
// canceled) independently. Sessions are safe for concurrent use.
type Session struct {
	dep       *Deployment
	h         *head.Head
	logf      func(string, ...any)
	ctx       context.Context
	cancel    context.CancelFunc
	agents    sync.WaitGroup
	debug     *http.Server
	debugAddr net.Addr

	// burst runs the session-wide arbiter that sizes the shared burst fleet
	// for every admitted query; nil unless Deployment.Elastic is set.
	burst *BurstLoop

	mu       sync.Mutex
	agentErr error
	closed   bool
}

// DebugAddr returns the bound address of the session's debug HTTP server,
// or nil when the deployment did not set Deployment.DebugAddr. With
// Deployment.DebugAddr ":0" this is how callers discover the chosen port.
func (s *Session) DebugAddr() net.Addr { return s.debugAddr }

// NewSession validates d and opens a live session over it: a multi-query
// head plus one long-lived agent per cluster, all in-process. The clusters
// register once and then serve every query submitted through the session,
// concurrently, under the head's weighted fair share. Close the session to
// release the agents.
func NewSession(d *Deployment) (*Session, error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	logf := d.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var arb *elastic.Arbiter
	if d.Elastic != nil {
		var err error
		if arb, err = elastic.NewArbiter(d.Elastic.Arbiter, &d.Elastic.Env); err != nil {
			return nil, err
		}
	}
	h, err := head.New(head.Config{
		ExpectClusters: len(d.Clusters),
		Logf:           d.Logf,
		Obs:            d.Obs,
		Tuning:         d.Tuning,
		DynamicSites:   d.Elastic != nil,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Session{dep: d, h: h, logf: logf, cancel: cancel, ctx: ctx}
	if arb != nil {
		s.burst = StartBurstLoop(h, arb,
			&cluster.AgentLauncher{Template: s.agentConfig(d.Elastic.Worker)}, d.Obs, logf)
	}
	if d.DebugAddr != "" {
		srv, addr, err := obs.ServeDebug(d.DebugAddr, d.Obs.Metrics(), d.Obs.Trace())
		if err != nil {
			h.Shutdown()
			cancel()
			return nil, err
		}
		s.debug, s.debugAddr = srv, addr
		logf("driver: debug endpoints on http://%s/debug/", addr)
	}
	for _, cs := range d.Clusters {
		s.agents.Add(1)
		go func(cs ClusterSpec) {
			defer s.agents.Done()
			err := cluster.RunAgent(ctx, s.agentConfig(cs))
			if err != nil && !errors.Is(err, context.Canceled) {
				s.mu.Lock()
				if s.agentErr == nil {
					s.agentErr = fmt.Errorf("driver: cluster %s: %w", cs.Name, err)
				}
				s.mu.Unlock()
				h.SiteLost(cs.Site, err)
			}
		}(cs)
	}
	return s, nil
}

// agentConfig is the runtime of one agent for cs, wired to the session's
// head.
func (s *Session) agentConfig(cs ClusterSpec) cluster.AgentConfig {
	return cluster.AgentConfig{
		Site:             cs.Site,
		Name:             cs.Name,
		Cores:            cs.Cores,
		RetrievalThreads: cs.RetrievalThreads,
		Tuning:           s.dep.Tuning,
		Sources:          cs.Sources,
		SourceLabels:     cs.SourceLabels,
		Head:             cluster.InProcAgent{Head: s.h},
		Retry:            cs.Retry,
		Logf:             s.logf,
		Obs:              s.dep.Obs,
	}
}

// Submit admits one query into the session and returns a handle to it. The
// query starts competing for the shared clusters immediately, interleaved
// with every other active query by weighted fair share.
func (s *Session) Submit(step Step) (*Query, error) {
	if step.Reducer == nil {
		return nil, errors.New("driver: Step.Reducer is required")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("driver: session closed")
	}
	s.mu.Unlock()
	d := s.dep
	placement := d.Placement
	if step.Placement != nil {
		if err := step.Placement.Validate(d.Index); err != nil {
			return nil, err
		}
		placement = step.Placement
	}
	poolOpts := d.PoolOpts
	if step.PoolOpts != nil {
		poolOpts = *step.PoolOpts
	}
	pool, err := jobs.NewPool(d.Index, placement, poolOpts)
	if err != nil {
		return nil, err
	}
	spec := protocol.JobSpec{
		App:      step.App,
		Params:   step.Params,
		UnitSize: d.Index.UnitSize,
	}
	if err := head.EncodeIndexSpec(&spec, d.Index); err != nil {
		return nil, err
	}
	if step.Elastic != nil {
		if d.Elastic == nil {
			return nil, errors.New("driver: Step.Elastic requires Deployment.Elastic")
		}
	}
	hq, err := s.h.Admit(head.QueryConfig{
		Pool:    pool,
		Reducer: step.Reducer,
		Spec:    spec,
		Weight:  step.Weight,
		Policy:  step.Elastic,
		// Every cluster reports each query (possibly an identity object), so
		// RunOnce-parity report counts hold for every submitted query —
		// except in elastic deployments, where the shared burst fleet may
		// contribute to (and be drained away from) any query, so completion
		// must not wait on workers that already departed (the contributor
		// rule covers the survivors).
		ExpectAll: d.Elastic == nil,
	})
	if err != nil {
		return nil, err
	}
	return &Query{s: s, q: hq}, nil
}

// Iterate runs rounds over the live session until next returns a nil Step or
// maxRounds is reached, honoring ctx between and during rounds: when ctx
// expires mid-round the in-flight query is canceled before returning, so no
// goroutines or job leases are left behind. Unlike Deployment.Iterate, the
// clusters register once for the whole sequence.
func (s *Session) Iterate(ctx context.Context, maxRounds int, next func(round int, prev core.Object) (*Step, error)) (core.Object, []RoundReport, error) {
	if maxRounds <= 0 {
		return nil, nil, fmt.Errorf("driver: maxRounds must be positive, got %d", maxRounds)
	}
	var (
		prev    core.Object
		reports []RoundReport
	)
	for round := 0; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, reports, err
		}
		step, err := next(round, prev)
		if err != nil {
			return nil, reports, err
		}
		if step == nil {
			break
		}
		q, err := s.Submit(*step)
		if err != nil {
			return nil, reports, fmt.Errorf("driver: round %d: %w", round, err)
		}
		obj, clusterReports, err := q.Wait(ctx)
		if err != nil {
			if ctx.Err() != nil {
				q.Cancel() // release the round's jobs and engines
			}
			return nil, reports, fmt.Errorf("driver: round %d: %w", round, err)
		}
		prev = obj
		reports = append(reports, RoundReport{Round: round, Object: obj, Reports: clusterReports})
	}
	if prev == nil {
		return nil, nil, errors.New("driver: no rounds executed")
	}
	return prev, reports, nil
}

// Close shuts the session down: active queries fail with head.ErrShutdown,
// the agents exit, and their goroutines are joined. Returns the first agent
// error observed during the session's lifetime, if any.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.agents.Wait()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if s.debug != nil {
		_ = s.debug.Close()
	}
	s.h.Shutdown()
	// Let the burst loop finish its graceful teardown (drain the fleet,
	// settle gauges) before pulling the context; it bounds every wait with
	// the drain grace.
	if s.burst != nil {
		s.burst.Close()
	}
	s.cancel()
	s.agents.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.agentErr
}

// Query is a handle to one submitted query.
type Query struct {
	s *Session
	q *head.Query
}

// ID returns the head-assigned query identifier (also the value of the
// query="<id>" label on the head's per-query metric series).
func (q *Query) ID() int { return q.q.ID() }

// Policy returns a copy of the elasticity policy this query runs under
// (after session-default inheritance), or nil for a policy-free query.
func (q *Query) Policy() *elastic.Policy { return q.q.Policy() }

// Wait blocks until the query completes, fails, is canceled, or ctx
// expires, and returns the final reduction object with per-cluster reports.
func (q *Query) Wait(ctx context.Context) (core.Object, []head.ClusterReport, error) {
	obj, reports, _, err := q.q.Wait(ctx)
	if err != nil {
		q.s.mu.Lock()
		agentErr := q.s.agentErr
		q.s.mu.Unlock()
		if agentErr != nil && ctx.Err() == nil {
			return nil, nil, agentErr
		}
		return nil, nil, err
	}
	return obj, reports, nil
}

// Cancel withdraws the query: clusters discard its state on their next poll
// and Wait returns head.ErrQueryCanceled. Canceling a finished query is a
// no-op.
func (q *Query) Cancel() { q.q.Cancel() }

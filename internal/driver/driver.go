// Package driver is the public client surface for running generalized-
// reduction queries over a hybrid deployment. A Deployment describes the
// fixed wiring — dataset layout, placement, clusters; a Client opens
// Sessions over it; a Session accepts concurrent queries (Submit → Query →
// Wait/Cancel) that share the deployed clusters under the head's weighted
// fair-share scheduler.
//
// The original round-at-a-time entry points remain as thin wrappers:
// Deployment.RunOnce submits one query over a fresh session and waits;
// Deployment.Iterate runs dependent rounds (k-means lloyd iterations,
// PageRank power steps) over one session, re-using the clusters'
// registrations across rounds. The data never moves.
//
// Multi-process deployments script the same loop with the cmd/headnode and
// cmd/workernode daemons.
package driver

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/elastic"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// ClusterSpec describes one participating cluster.
type ClusterSpec struct {
	Site             int
	Name             string
	Cores            int
	RetrievalThreads int
	// Sources maps site → source for this cluster's data paths. Required.
	Sources map[int]chunk.Source
	// SourceLabels names sources for byte accounting; optional.
	SourceLabels map[int]string
	// Retry is the retrieval fault-tolerance policy.
	Retry cluster.Retry
}

// Deployment is a reusable hybrid deployment: dataset layout, placement and
// cluster wiring that stay fixed across queries.
type Deployment struct {
	Index     *chunk.Index
	Placement jobs.Placement
	Clusters  []ClusterSpec
	PoolOpts  jobs.Options
	// Tuning carries the shared knobs (GroupBytes,
	// CheckpointEveryJobs, lease/heartbeat cadence, …) applied to both the
	// session's head and its cluster agents. See config.Tuning.
	Tuning config.Tuning
	// Obs, when non-nil, receives head- and cluster-side metrics and traces.
	Obs *obs.Obs
	// DebugAddr, when non-empty, serves the observability debug surface for
	// each session's lifetime on this TCP address (":0" for an ephemeral
	// port; see Session.DebugAddr): /healthz, /metrics, /debug/metrics
	// (Prometheus text), /debug/vars, /debug/trace and /debug/pprof/. The
	// metrics and trace endpoints read the deployment's Obs bundle.
	DebugAddr string
	// Elastic, when non-nil, enables dynamic provisioning: queries submitted
	// with Step.Elastic run under a burst arbiter that launches and drains
	// cloud workers mid-query. Sessions over an elastic deployment admit
	// sites beyond the static cluster set (head.Config.DynamicSites).
	Elastic *ElasticConfig
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// ElasticConfig wires the session-wide elastic arbiter into a deployment:
// every session over the deployment runs one arbiter loop that sizes a
// single shared burst fleet against the aggregate remaining work of all
// admitted queries, weighing each query's own deadline/budget policy
// (Step.Elastic) by its fair-share weight.
type ElasticConfig struct {
	// Env models the static topology plus what one more burst worker buys —
	// the arbiter's estimator input (see elastic.Env).
	Env elastic.Env
	// Worker is the template for live burst workers: its Sources must cover
	// every data site (burst workers host no data of their own). Site and
	// Name are overridden per launch.
	Worker ClusterSpec
	// Launcher overrides the worker actuator; nil launches in-process agents
	// from Worker, wired to the session's head.
	Launcher cluster.Launcher
	// SiteBase is the first burst site ID (elastic.DefaultWorkerSiteBase
	// when 0); burst IDs grow monotonically and are never reused.
	SiteBase int
	// Arbiter tunes the session-wide loop: tick interval, scale-up
	// cooldown, drain timeout, launch lead time, the fleet-wide worker cap,
	// and pricing. Zero values take the elastic package defaults.
	Arbiter elastic.ArbiterConfig
}

// Step is one query's job: the registered application and its parameters,
// plus the head-side reducer used for decoding and the global reduction.
type Step struct {
	App     string
	Params  []byte
	Reducer core.Reducer
	// Weight is the query's fair-share weight under contention (default 1).
	Weight int
	// Placement overrides the deployment's placement for this query; nil
	// uses the deployment default.
	Placement jobs.Placement
	// PoolOpts overrides the deployment's pool options for this query; nil
	// uses the deployment default.
	PoolOpts *jobs.Options
	// Elastic is this query's deadline/budget policy, weighed by the
	// session-wide arbiter against every other admitted query's when sizing
	// the shared burst fleet (only Deadline, Budget, MinWorkers and
	// MaxWorkers are consulted). Requires Deployment.Elastic. Nil inherits
	// the head's session default policy, if any; in an elastic deployment
	// queries complete on the contributor rule (not ExpectAll), so workers
	// drained mid-query do not stall completion.
	Elastic *elastic.Policy
}

// RoundReport is what one round produced.
type RoundReport struct {
	Round   int
	Object  core.Object
	Reports []head.ClusterReport
}

func (d *Deployment) validate() error {
	if d.Index == nil {
		return errors.New("driver: Index is required")
	}
	if len(d.Clusters) == 0 {
		return errors.New("driver: at least one cluster is required")
	}
	if err := d.Placement.Validate(d.Index); err != nil {
		return err
	}
	for i, c := range d.Clusters {
		if c.Cores <= 0 {
			return fmt.Errorf("driver: cluster %d (%s) has %d cores", i, c.Name, c.Cores)
		}
		if len(c.Sources) == 0 {
			return fmt.Errorf("driver: cluster %d (%s) has no sources", i, c.Name)
		}
	}
	if e := d.Elastic; e != nil && e.Launcher == nil {
		if e.Worker.Cores <= 0 {
			return fmt.Errorf("driver: ElasticConfig.Worker has %d cores", e.Worker.Cores)
		}
		if len(e.Worker.Sources) == 0 {
			return errors.New("driver: ElasticConfig.Worker has no sources")
		}
	}
	return nil
}

// RunOnce executes a single query over a fresh session and returns the
// merged reduction object with the per-cluster reports. Thin wrapper over
// Session.Submit + Query.Wait; use a Session directly to run queries
// concurrently or to amortize cluster registration across calls.
func (d *Deployment) RunOnce(s Step) (core.Object, []head.ClusterReport, error) {
	sess, err := NewSession(d)
	if err != nil {
		return nil, nil, err
	}
	defer sess.Close()
	q, err := sess.Submit(s)
	if err != nil {
		return nil, nil, err
	}
	return q.Wait(context.Background())
}

// Iterate runs rounds until next returns a nil Step or maxRounds is
// reached. next receives the previous round's reduction object (nil on the
// first round) and derives the next round's parameters. It returns the last
// object, the per-round reports, and the number of rounds executed. Thin
// wrapper over Session.Iterate with a background context; the clusters
// register once for the whole sequence.
func (d *Deployment) Iterate(maxRounds int, next func(round int, prev core.Object) (*Step, error)) (core.Object, []RoundReport, error) {
	sess, err := NewSession(d)
	if err != nil {
		return nil, nil, err
	}
	defer sess.Close()
	return sess.Iterate(context.Background(), maxRounds, next)
}

package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/costmodel"
	"repro/internal/elastic"
	"repro/internal/hybridsim"
)

// Elastic extension: instead of freezing the cloud allocation at startup
// (RunProvisioning), run the burst arbiter inside the simulator and let it
// provision and drain workers mid-run under a deadline × budget sweep. The
// scenario injects an unanticipated compute slowdown on the local cluster —
// the perturbation a static, pre-sized plan cannot absorb — and the output
// is the dynamic cost-vs-makespan frontier next to the realized static
// baseline (the same pre-committed core counts re-simulated under the same
// slowdown, priced with the same costmodel).

const (
	// ElasticWorkerCores is the size of one simulated burst worker.
	ElasticWorkerCores = 8
	// ElasticSlowdownAt / ElasticSlowdownFactor define the injected
	// perturbation: from 15s in, the local side degrades to 1/4 of its
	// nominal rate (thermal throttling, a RAID rebuild, a noisy neighbour —
	// whatever the static plan did not see coming). See elasticSlowdown for
	// which resource is hit per app.
	ElasticSlowdownAt     = 15 * time.Second
	ElasticSlowdownFactor = 4.0
)

// elasticEnv builds the arbiter environment for app: a local-only static
// topology (16 cores, the calibration's campus cluster) whose 50/50 dataset
// half lives in the object store, plus the model of one cloud burst worker.
// The env describes the NOMINAL system — the arbiter does not know about
// the injected slowdown and has to discover it through feedback.
func elasticEnv(app App) elastic.Env {
	base := ConfigWithCores(app, Env5050, 16, 0, SimOptions{})
	return elastic.Env{
		Base: base,
		Worker: hybridsim.ClusterModel{
			Cores: ElasticWorkerCores, CoreSpeed: cloudCoreSpeed,
			RetrievalThreads: ElasticWorkerCores / 2,
			Jitter:           jitterCloud,
		},
		WorkerPaths: map[int]hybridsim.PathModel{
			siteCloud: {PerStream: s3PerStream, Latency: s3Latency},
			siteLocal: {Bandwidth: wanPipe, PerStream: wanPerStream, Latency: wanLatency},
		},
	}
}

// Stage-cache calibration: the burst-side replica lives next to S3 and
// serves at S3 rates; the staging path is the same shared campus↔AWS pipe
// the workers would otherwise pull through, but as StageStreams bulk
// sequential streams with no per-chunk seek penalty. StagedHitRate is the
// effective-egress belief handed to the arbiter's estimator — deliberately
// modest, so the estimator stays a lower bound while the realized run
// (pre-staged in grant order ahead of the workers) usually does better.
const (
	stageCapacityBytes = int64(16) << 30
	stageStreams       = 16
	StagedHitRate      = 0.5
)

// StageModel returns the calibrated burst-side partition cache model.
func StageModel() *hybridsim.StageModel {
	return &hybridsim.StageModel{
		Site:           siteCloud,
		CapacityBytes:  stageCapacityBytes,
		ServeRate:      s3Egress,
		ServePerStream: s3PerStream,
		ServeLatency:   s3Latency,
		StagePath:      hybridsim.PathModel{Bandwidth: wanPipe, PerStream: wanPerStream, Latency: wanLatency},
		StageStreams:   stageStreams,
		HitRate:        StagedHitRate,
	}
}

// ElasticOptions selects the data-plane extensions of an elastic run.
type ElasticOptions struct {
	// Staged enables the burst-side partition cache: campus-hosted chunks
	// are pre-staged into a cloud-local replica in grant order, burst
	// workers read repeat/staged chunks at S3 rates, and the arbiter's
	// estimator blends StagedHitRate into the effective origin egress.
	// Staged burst workers are modelled at the cloud site (they prefer
	// cloud-hosted and staged data over pulling the WAN).
	Staged bool
	// LaunchDelay is the simulated worker boot time: a scale-up decision
	// bills immediately, but the worker only starts pulling jobs
	// LaunchDelay later. The sweep feeds the same value to the arbiter's
	// LaunchLeadTime so it provisions ahead of the boot.
	LaunchDelay time.Duration
	// Iterations > 1 runs the iterative variant of the app (pagerank and
	// kmeans re-scan the dataset every pass; the cache tier serves passes
	// after the first at cloud-local rates).
	Iterations int
	// StageCapacityBytes overrides the staged replica's capacity
	// (0 keeps the calibrated default).
	StageCapacityBytes int64
}

// stageModelFor is StageModel with the options' overrides applied.
func stageModelFor(opts ElasticOptions) *hybridsim.StageModel {
	m := StageModel()
	if opts.StageCapacityBytes > 0 {
		m.CapacityBytes = opts.StageCapacityBytes
	}
	return m
}

// elasticEnvWith is elasticEnv plus the selected extensions.
func elasticEnvWith(app App, opts ElasticOptions) elastic.Env {
	env := elasticEnv(app)
	if opts.Staged {
		env.Base.Topology.Stage = stageModelFor(opts)
		env.Worker.Site = siteCloud
	}
	return env
}

// ElasticPoint is one (deadline, budget) cell of the sweep: a one-query run
// under the arbiter, with the cell's policy and its outcome on top of the
// run's fleet-level result (makespan, bill, peak fleet, decision log).
type ElasticPoint struct {
	Deadline    time.Duration
	Budget      float64
	MetDeadline bool
	ElasticMultiPoint
}

// ElasticSweep is the full deadline × budget sweep with its static baseline.
type ElasticSweep struct {
	App     App
	Pricing costmodel.Pricing
	Points  []ElasticPoint
	// Static is the baseline on the same axes: fixed cloud core counts
	// committed before the run, re-simulated under the same injected
	// slowdown, cores billed for the whole realized makespan.
	Static []costmodel.Candidate
}

// RunElasticPointWith simulates one elastic run of app — a session of one
// query carrying policy, sized by an arbiter configured with cfg — under the
// selected extensions, with the standard slowdown injected, and prices it.
// Deterministic: fixed seed, virtual clock, and a pure-policy arbiter.
func RunElasticPointWith(app App, cfg elastic.ArbiterConfig, policy elastic.Policy, opts ElasticOptions) (ElasticPoint, error) {
	mp, err := RunElasticMultiPointWith(app, cfg,
		[]MultiPolicyQuery{{Name: string(app), Policy: &policy}}, opts)
	if err != nil {
		return ElasticPoint{}, err
	}
	return ElasticPoint{
		Deadline:          policy.Deadline,
		Budget:            policy.Budget,
		MetDeadline:       mp.Queries[0].MetDeadline,
		ElasticMultiPoint: mp,
	}, nil
}

// singleQueryMulti wraps cfg as a one-query multi-sim run of `iterations`
// passes (≤ 1 is the ordinary single pass) with the standard slowdown
// injected on the local cluster (index 0) — the static baseline's run.
func singleQueryMulti(app App, cfg hybridsim.Config, iterations int) hybridsim.MultiConfig {
	mc := cfg.Multi()
	mc.Queries[0].Name = string(app)
	mc.Queries[0].Iterations = iterations
	mc.Slowdowns = []hybridsim.MultiSlowdown{elasticSlowdown(app)}
	return mc
}

// elasticSlowdown picks the degradation that actually bites each app: knn
// is retrieval-bound (its compute rate far exceeds the local disk), so its
// perturbation is a degraded local storage array; the compute-bound apps
// get a compute slowdown on the local cluster.
func elasticSlowdown(app App) hybridsim.MultiSlowdown {
	if app == KNN {
		return hybridsim.MultiSlowdown{
			At: ElasticSlowdownAt, Source: true, Site: siteLocal, Factor: ElasticSlowdownFactor,
		}
	}
	return hybridsim.MultiSlowdown{At: ElasticSlowdownAt, Cluster: 0, Factor: ElasticSlowdownFactor}
}

// trafficUsage extracts the cross-cloud-boundary traffic of a finished
// multi-sim run: clusters sitting at the cloud storage site and burst
// workers are in-cloud, everything else is outside. Bytes pulled out of the
// store by outside clusters are egress; bytes in-cloud consumers pull from
// campus storage are ingress; every chunk fetched from the store is a GET;
// each in-cloud cluster's reduction object crosses out to the head.
func trafficUsage(cfg hybridsim.Config, res *hybridsim.MultiResult) costmodel.Usage {
	var u costmodel.Usage
	avgChunk := avgChunkBytes(cfg)
	gets := func(n int64) int64 {
		if avgChunk <= 0 {
			return 0
		}
		return (n + avgChunk - 1) / avgChunk
	}
	for _, c := range res.Clusters {
		if c.Burst || c.Site == siteCloud {
			for site, n := range c.BytesBySite {
				if site == siteCloud {
					u.Requests += gets(n)
				} else {
					u.BytesIn += n
				}
			}
			// Replica reads are in-cloud GETs: no boundary transfer.
			u.Requests += gets(c.StageReadBytes)
			u.BytesOut += cfg.App.RobjBytes
		} else if n, ok := c.BytesBySite[siteCloud]; ok {
			u.BytesOut += n
			u.Requests += gets(n)
		}
	}
	if st := res.Stage; st != nil {
		// Pre-staged bytes pulled from outside the cloud are ingress; every
		// staged chunk is one PUT into the replica store.
		for site, n := range st.PrestagedBySite {
			if site != siteCloud {
				u.BytesIn += n
			}
		}
		u.Requests += int64(st.PrestagedChunks)
	}
	return u
}

// avgChunkBytes is the dataset's mean chunk size, for GET estimation.
func avgChunkBytes(cfg hybridsim.Config) int64 {
	n := int64(cfg.Index.NumChunks())
	if n == 0 {
		return 0
	}
	var total int64
	for _, f := range cfg.Index.Files {
		total += f.Size
	}
	return total / n
}

// NominalStaticMakespan simulates a pre-committed allocation WITHOUT the
// injected slowdown: the makespan a capacity planner trusting the nominal
// model would predict, and therefore the basis on which a static allocation
// gets picked before the run. The staged elastic gate compares the realized
// sweep against this choice — the plan that looked right on paper.
func NominalStaticMakespan(app App, cloudCores int, opts ElasticOptions) (time.Duration, error) {
	cfg := ConfigWithCores(app, Env5050, 16, cloudCores, SimOptions{})
	if opts.Staged && cloudCores > 0 {
		cfg.Topology.Stage = stageModelFor(opts)
	}
	mc := singleQueryMulti(app, cfg, opts.Iterations)
	mc.Slowdowns = nil
	res, err := hybridsim.RunMulti(mc)
	if err != nil {
		return 0, fmt.Errorf("experiments: nominal static %s/%d: %w", app, cloudCores, err)
	}
	return res.Total, nil
}

// RunStaticCandidateWith realizes one pre-committed cloud allocation under
// the injected slowdown — cloudCores fixed for the whole run, billed for the
// full realized makespan — and under the same extensions as the elastic
// points, so the baseline never fights the frontier with one hand tied: a
// staged sweep stages for the static cloud cluster too.
func RunStaticCandidateWith(app App, pricing costmodel.Pricing, cloudCores int, opts ElasticOptions) (costmodel.Candidate, error) {
	cfg := ConfigWithCores(app, Env5050, 16, cloudCores, SimOptions{})
	if opts.Staged && cloudCores > 0 {
		cfg.Topology.Stage = stageModelFor(opts)
	}
	res, err := hybridsim.RunMulti(singleQueryMulti(app, cfg, opts.Iterations))
	if err != nil {
		return costmodel.Candidate{}, fmt.Errorf("experiments: static %s/%d: %w", app, cloudCores, err)
	}
	u := trafficUsage(cfg, res)
	u.CloudCores = cloudCores
	u.Makespan = res.Total
	cost, err := pricing.Price(u)
	if err != nil {
		return costmodel.Candidate{}, err
	}
	return costmodel.Candidate{CloudCores: cloudCores, Makespan: res.Total, Cost: cost}, nil
}

// ElasticStaticCores is the static baseline's pre-committed allocation menu.
var ElasticStaticCores = []int{0, 8, 16, 32, 64}

// DefaultElasticDeadlines and DefaultElasticBudgets are the standard sweep
// grid. Every deadline is below what the slowed local cluster can manage
// alone, so each cell exercises the scale-up path; budgets bound the
// instance spend (0 = unlimited).
var (
	DefaultElasticDeadlines = []time.Duration{120 * time.Second, 150 * time.Second, 240 * time.Second}
	DefaultElasticBudgets   = []float64{0, 0.12}
)

// RunElasticSweep sweeps deadline × budget for app, running the burst
// arbiter in simulation at every point, and realizes the static baseline
// under the same slowdown and pricing.
func RunElasticSweep(app App, pricing costmodel.Pricing,
	deadlines []time.Duration, budgets []float64) (*ElasticSweep, error) {
	return RunElasticSweepWith(app, pricing, deadlines, budgets, ElasticOptions{})
}

// RunElasticSweepWith is RunElasticSweep under the selected extensions,
// applied to the elastic points AND the static baseline alike.
func RunElasticSweepWith(app App, pricing costmodel.Pricing,
	deadlines []time.Duration, budgets []float64, opts ElasticOptions) (*ElasticSweep, error) {
	sw := &ElasticSweep{App: app, Pricing: pricing}
	cfg := DefaultMultiArbiterConfig(pricing)
	cfg.LaunchLeadTime = opts.LaunchDelay
	for _, d := range deadlines {
		for _, b := range budgets {
			p, err := RunElasticPointWith(app, cfg, elastic.Policy{Deadline: d, Budget: b}, opts)
			if err != nil {
				return nil, err
			}
			sw.Points = append(sw.Points, p)
		}
	}
	for _, cores := range ElasticStaticCores {
		c, err := RunStaticCandidateWith(app, pricing, cores, opts)
		if err != nil {
			return nil, err
		}
		sw.Static = append(sw.Static, c)
	}
	return sw, nil
}

// Dominated reports whether elastic point p is strictly dominated (higher
// cost AND higher makespan) by any static candidate in sw.
func (sw *ElasticSweep) Dominated(p ElasticPoint) (costmodel.Candidate, bool) {
	for _, c := range sw.Static {
		if c.Cost.Total() < p.Cost.Total() && c.Makespan < p.Makespan {
			return c, true
		}
	}
	return costmodel.Candidate{}, false
}

// FormatElasticSweep renders the sweep as a frontier table plus each point's
// decision log. Deterministic byte-for-byte for identical inputs.
func FormatElasticSweep(sw *ElasticSweep) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Elastic sweep — %s: local cluster slows %gx at %v; dynamic vs static provisioning\n",
		sw.App, ElasticSlowdownFactor, ElasticSlowdownAt)
	fmt.Fprintf(&b, "%-10s %-10s %10s %5s %6s %4s %4s %10s %10s %10s %10s\n",
		"deadline", "budget", "makespan", "met", "peak", "ups", "dns",
		"instances", "transfer", "requests", "total $")
	for _, p := range sw.Points {
		met := ""
		if p.MetDeadline {
			met = "yes"
		}
		budget := "-"
		if p.Budget > 0 {
			budget = fmt.Sprintf("$%.2f", p.Budget)
		}
		deadline := "-"
		if p.Deadline > 0 {
			deadline = p.Deadline.String()
		}
		fmt.Fprintf(&b, "%-10s %-10s %10.1fs %5s %6d %4d %4d %10.4f %10.4f %10.4f %10.4f\n",
			deadline, budget, p.Makespan.Seconds(), met, p.PeakWorkers,
			p.ScaleUps, p.ScaleDowns, p.Cost.Instances, p.Cost.Transfer, p.Cost.Requests, p.Cost.Total())
	}
	fmt.Fprintf(&b, "\nStatic baseline (cores committed up front, same slowdown, same pricing):\n")
	fmt.Fprintf(&b, "%-12s %10s %10s\n", "cloud cores", "makespan", "total $")
	for _, c := range sw.Static {
		fmt.Fprintf(&b, "%-12d %10.1fs %10.4f\n", c.CloudCores, c.Makespan.Seconds(), c.Cost.Total())
	}
	for _, p := range sw.Points {
		if log := elastic.FormatDecisions(p.Decisions); log != "" {
			fmt.Fprintf(&b, "\ndecisions @ deadline=%v budget=$%.2f:\n%s", p.Deadline, p.Budget, log)
		}
	}
	return b.String()
}

// ElasticSweepCSV renders the sweep (elastic points then static baseline) as
// CSV for plotting the cost-vs-makespan frontier.
func ElasticSweepCSV(sw *ElasticSweep) string {
	var b strings.Builder
	b.WriteString("kind,deadline_s,budget,makespan_s,met,peak_workers,scale_ups,scale_downs,instance_cost,transfer_cost,request_cost,total_cost\n")
	for _, p := range sw.Points {
		met := 0
		if p.MetDeadline {
			met = 1
		}
		fmt.Fprintf(&b, "elastic,%.1f,%.4f,%.3f,%d,%d,%d,%d,%.6f,%.6f,%.6f,%.6f\n",
			p.Deadline.Seconds(), p.Budget, p.Makespan.Seconds(), met,
			p.PeakWorkers, p.ScaleUps, p.ScaleDowns,
			p.Cost.Instances, p.Cost.Transfer, p.Cost.Requests, p.Cost.Total())
	}
	for _, c := range sw.Static {
		fmt.Fprintf(&b, "static,,,%.3f,,%d,,,%.6f,%.6f,%.6f,%.6f\n",
			c.Makespan.Seconds(), c.CloudCores,
			c.Cost.Instances, c.Cost.Transfer, c.Cost.Requests, c.Cost.Total())
	}
	return b.String()
}

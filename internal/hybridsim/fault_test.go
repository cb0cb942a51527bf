package hybridsim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// creditTotal sums the per-cluster job accounting — with an active fault
// plan, exactly one credit per dataset chunk must survive no matter how many
// copies were executed (the pool-conservation invariant).
func creditTotal(res *Result) int {
	n := 0
	for _, c := range res.Clusters {
		n += c.Jobs.Total()
	}
	return n
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSimCrashRecoveryMatchesFailureFree is the simulated half of the
// end-to-end recovery drill: a cluster crashes mid-run after shipping
// checkpoints, restarts, and the run still credits every job exactly once —
// the simulator's analogue of a byte-identical final reduction object.
func TestSimCrashRecoveryMatchesFailureFree(t *testing.T) {
	cfg := testConfig(t, 16, 8, 0.5) // 128 jobs
	base := mustRun(t, cfg)

	cfg.Faults = fault.Plan{
		Events:       []fault.Event{{At: base.Total / 3, Site: 1, Kind: fault.Crash}},
		RestartAfter: 500 * time.Millisecond,
		Tuning:       config.Tuning{CheckpointEveryJobs: 8, LeaseTTL: 200 * time.Millisecond},
	}
	res := mustRun(t, cfg)

	if got, want := creditTotal(res), cfg.Queries[0].Index.NumChunks(); got != want {
		t.Errorf("faulty run credited %d jobs, dataset has %d", got, want)
	}
	if res.Faults.Crashes != 1 || res.Faults.Recoveries != 1 {
		t.Errorf("Faults = %+v, want 1 crash and 1 recovery", res.Faults)
	}
	if res.Faults.Checkpoints == 0 {
		t.Error("no checkpoints were taken before the crash")
	}
	if res.Total <= base.Total {
		t.Errorf("crash run finished in %v, faster than failure-free %v", res.Total, base.Total)
	}
	// A checkpoint protected the pre-crash work: the requeued+reissued tail
	// must be smaller than everything the cluster had committed.
	if res.Faults.Reissued == 0 && res.Faults.Requeued == 0 {
		t.Error("crash recovered no work at all — detection never ran")
	}
}

// TestSimFaultDeterminism repeats a faulty run and requires byte-identical
// results — the property that makes fault plans replayable.
func TestSimFaultDeterminism(t *testing.T) {
	mk := func() Config {
		cfg := testConfig(t, 12, 6, 0.4)
		cfg.Topology.Clusters[1].Jitter = 0.1
		cfg.Faults = fault.Plan{
			Events: []fault.Event{
				{At: 400 * time.Millisecond, Site: 1, Kind: fault.Crash},
				{At: 700 * time.Millisecond, Site: 0, Kind: fault.Slowdown, Factor: 3},
				{At: 1200 * time.Millisecond, Site: 0, Kind: fault.Recover},
			},
			RestartAfter: 600 * time.Millisecond,
			Tuning: config.Tuning{CheckpointEveryJobs: 6, LeaseTTL: 250 * time.Millisecond,
				SpeculateAfter: 300 * time.Millisecond},
		}
		return cfg
	}
	a := mustRun(t, mk())
	b := mustRun(t, mk())
	if !reflect.DeepEqual(a, b) {
		t.Errorf("fault runs differ:\n%+v\nvs\n%+v", a, b)
	}
	if got, want := creditTotal(a), 12*6; got != want {
		t.Errorf("credited %d jobs, want %d", got, want)
	}
}

// TestSimPartitionHealsAndFlushes cuts a cluster off briefly (shorter than
// the lease TTL): deferred completions flush at heal time and nothing is
// recomputed.
func TestSimPartitionHealsAndFlushes(t *testing.T) {
	cfg := testConfig(t, 8, 4, 0.5)
	cfg.Faults = fault.Plan{
		Events: []fault.Event{
			{At: 200 * time.Millisecond, Site: 1, Kind: fault.Partition},
			{At: 500 * time.Millisecond, Site: 1, Kind: fault.Recover},
		},
		Tuning: config.Tuning{LeaseTTL: 2 * time.Second},
	}
	res := mustRun(t, cfg)
	if got, want := creditTotal(res), cfg.Queries[0].Index.NumChunks(); got != want {
		t.Errorf("credited %d jobs, want %d", got, want)
	}
	if res.Faults.Partitions != 1 {
		t.Errorf("Partitions = %d, want 1", res.Faults.Partitions)
	}
	if res.Faults.Recoveries != 0 || res.Faults.Reissued != 0 {
		t.Errorf("short partition triggered recovery machinery: %+v", res.Faults)
	}
}

// TestSimPartitionFencedRestarts lets a partition outlive the lease: the
// head declares the site failed, hands its work out, and the stale master is
// fenced into a checkpoint restart when connectivity returns.
func TestSimPartitionFencedRestarts(t *testing.T) {
	cfg := testConfig(t, 12, 6, 0.5)
	cfg.Faults = fault.Plan{
		Events: []fault.Event{
			{At: 300 * time.Millisecond, Site: 1, Kind: fault.Partition},
			{At: 1500 * time.Millisecond, Site: 1, Kind: fault.Recover},
		},
		RestartAfter: 300 * time.Millisecond,
		Tuning:       config.Tuning{CheckpointEveryJobs: 4, LeaseTTL: 400 * time.Millisecond},
	}
	res := mustRun(t, cfg)
	if got, want := creditTotal(res), cfg.Queries[0].Index.NumChunks(); got != want {
		t.Errorf("credited %d jobs, want %d", got, want)
	}
	if res.Faults.Partitions != 1 || res.Faults.Recoveries != 1 {
		t.Errorf("Faults = %+v, want 1 partition ending in 1 fenced recovery", res.Faults)
	}
}

// TestSimSpeculationDuplicatesStraggler slows one cluster down hard; the
// speculation watchdog re-adds its outstanding jobs and the healthy cluster
// finishes them, with duplicates deduplicated at commit.
func TestSimSpeculationDuplicatesStraggler(t *testing.T) {
	cfg := testConfig(t, 8, 4, 0.5)
	cfg.Faults = fault.Plan{
		Events: []fault.Event{{At: 100 * time.Millisecond, Site: 1, Kind: fault.Slowdown, Factor: 50}},
		Tuning: config.Tuning{SpeculateAfter: 200 * time.Millisecond},
	}
	res := mustRun(t, cfg)
	if got, want := creditTotal(res), cfg.Queries[0].Index.NumChunks(); got != want {
		t.Errorf("credited %d jobs, want %d", got, want)
	}
	if res.Faults.Slowdowns != 1 {
		t.Errorf("Slowdowns = %d, want 1", res.Faults.Slowdowns)
	}
	if res.Faults.Speculated == 0 {
		t.Error("watchdog never speculated the straggler's outstanding jobs")
	}
}

// TestSimCheckpointOnlyOverheadSmall is the no-failure cost bound: running
// with checkpointing enabled but no fault events must stay within 5% of the
// failure-free makespan.
func TestSimCheckpointOnlyOverheadSmall(t *testing.T) {
	cfg := testConfig(t, 16, 8, 0.5)
	base := mustRun(t, cfg)

	cfg.Faults = fault.Plan{Tuning: config.Tuning{CheckpointEveryJobs: 6}}
	res := mustRun(t, cfg)
	if res.Faults.Checkpoints == 0 {
		t.Fatal("no checkpoints were taken")
	}
	if limit := base.Total + base.Total/20; res.Total > limit {
		t.Errorf("checkpointed makespan %v exceeds failure-free %v by more than 5%%", res.Total, base.Total)
	}
	if got, want := creditTotal(res), cfg.Queries[0].Index.NumChunks(); got != want {
		t.Errorf("credited %d jobs, want %d", got, want)
	}
}

// TestSimRandomCrashesCreditEveryChunkOnce runs 200 seeded crash plans —
// one to four crashes, with and without leases and checkpoints — on three
// workloads: one query at two reduction-object sizes, and three queries of
// mixed weights, one of them iterative, which on odd seeds share the run
// with two burst workers the plan may crash too. Seed 152 crashes a cluster
// after the other one has reported, so the lost work is reissued to a site
// the head no longer waits for: the head must ask it for a second object
// holding those folds instead of sealing the pass without them. With 64 MiB
// objects (seeds 42, 144, 176) the reissued work reaches a cluster whose
// first object is still on the wire, and its commits must wait until the
// head has merged that object. Run itself fails a pass whose merged credit
// is off.
func TestSimRandomCrashesCreditEveryChunkOnce(t *testing.T) {
	single := func(robj int64) Config {
		cfg := testConfig(t, 12, 6, 0.5)
		cfg.Topology.Clusters[1].Jitter = 0.1
		if robj > 0 {
			cfg.Queries[0].App.RobjBytes = robj
		}
		return cfg
	}
	multi := Config{Topology: multiTopology(), Seed: 5}
	multi.Topology.Clusters[1].Jitter = 0.1
	for _, sp := range []struct {
		name          string
		files         int
		rate          float64
		weight, iters int
	}{
		{"kmeans", 6, 4 << 20, 2, 2},
		{"knn", 6, 16 << 20, 1, 1},
		{"pagerank", 4, 8 << 20, 3, 1},
	} {
		multi.Queries = append(multi.Queries, Query{
			Name:       sp.name,
			App:        multiApp(sp.name, sp.rate),
			Index:      multiIndex(t, sp.name, sp.files, 4),
			Placement:  jobs.SplitByFraction(sp.files, 0.5, 0, 1),
			Weight:     sp.weight,
			Iterations: sp.iters,
		})
	}
	burst := &ElasticSim{
		Interval: 200 * time.Millisecond,
		Decide: func(_ time.Duration, _ []head.QueryLoad, workers []int) ElasticDecision {
			if len(workers) < 2 {
				return ElasticDecision{Add: 1}
			}
			return ElasticDecision{}
		},
		Worker: ClusterModel{Cores: 4, RetrievalThreads: 4},
		WorkerPaths: map[int]PathModel{
			0: {Bandwidth: 50 << 20, Latency: 20 * time.Millisecond},
			1: {Bandwidth: 400 << 20, Latency: 2 * time.Millisecond},
		},
	}
	for _, w := range []struct {
		name string
		cfg  Config
	}{{"robj 0", single(0)}, {"robj 64 MiB", single(64 << 20)}, {"three queries", multi}} {
		base := mustRun(t, w.cfg).Total
		for seed := uint64(0); seed < 200; seed++ {
			cfg, sites := w.cfg, []int{0, 1}
			if len(cfg.Queries) > 1 && seed%2 == 1 {
				cfg.Elastic = burst
				sites = append(sites, head.BurstSiteBase, head.BurstSiteBase+1)
			}
			cfg.Faults = fault.RandomPlan(seed, 1+int(seed%4), base, sites)
			cfg.Faults.RestartAfter = base / 8
			cfg.Faults.Tuning = config.Tuning{CheckpointEveryJobs: int(seed%3) * 6}
			if seed%2 == 0 {
				cfg.Faults.Tuning.LeaseTTL = base / 16
			}
			res, err := Run(cfg)
			if err != nil {
				t.Errorf("%s, seed %d: %v", w.name, seed, err)
				continue
			}
			for qi, q := range cfg.Queries {
				credited := 0
				for _, acct := range res.Queries[qi].Jobs {
					credited += acct.Total()
				}
				if want := q.Index.NumChunks() * max(q.Iterations, 1); credited != want {
					t.Errorf("%s, seed %d: query %s credited %d jobs, want %d", w.name, seed, q.Name, credited, want)
				}
			}
		}
	}
}

// TestSimFaultStatsWithCallerRegistry: under a fault plan the head's and
// the pools' counters land in the caller's registry, and the run and its
// FaultStats are what they are without one.
func TestSimFaultStatsWithCallerRegistry(t *testing.T) {
	cfg := testConfig(t, 12, 6, 0.4)
	cfg.Topology.Clusters[1].Jitter = 0.1
	cfg.Faults = fault.Plan{
		Events: []fault.Event{
			{At: 400 * time.Millisecond, Site: 1, Kind: fault.Crash},
			{At: 700 * time.Millisecond, Site: 0, Kind: fault.Slowdown, Factor: 3},
			{At: 1200 * time.Millisecond, Site: 0, Kind: fault.Recover},
		},
		RestartAfter: 600 * time.Millisecond,
		Tuning:       config.Tuning{LeaseTTL: 250 * time.Millisecond, SpeculateAfter: 300 * time.Millisecond},
	}
	want := mustRun(t, cfg).Faults
	if want.Requeued+want.Reissued == 0 || want.Speculated == 0 || want.LatencyFlags == 0 {
		t.Fatalf("plan exercised too little: %+v", want)
	}
	reg := obs.NewRegistry()
	cfg.Obs = &obs.Obs{Registry: reg}
	if got := mustRun(t, cfg).Faults; got != want {
		t.Errorf("with a caller registry: %+v, want %+v", got, want)
	}
	if got := reg.Counter("pool_jobs_speculated_total").Value(); got != int64(want.Speculated) {
		t.Errorf("registry pool_jobs_speculated_total = %d, want %d", got, want.Speculated)
	}
	if got := reg.Counter("head_site_failures_total").Value(); got != 1 {
		t.Errorf("registry head_site_failures_total = %d, want 1", got)
	}
}

// TestSimFaultUnknownSiteRejected catches plans that target a site no
// cluster serves.
func TestSimFaultUnknownSiteRejected(t *testing.T) {
	cfg := testConfig(t, 4, 2, 0.5)
	cfg.Faults = fault.Plan{Events: []fault.Event{{At: time.Second, Site: 9, Kind: fault.Crash}}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("plan targeting an unknown site was accepted")
	}
}

// TestSimLatencyWatchdogFlagsSlowdown: the latency watchdog — not the
// empty-pool timer, which is parked at an hour — notices a slowed cluster's
// p99 grant→commit latency crossing StragglerFactor× the run median and
// speculates its in-flight jobs, which the healthy cluster then wins at
// commit time. A negative factor disables the watchdog entirely.
func TestSimLatencyWatchdogFlagsSlowdown(t *testing.T) {
	cfg := testConfig(t, 8, 4, 0.5)
	cfg.Faults = fault.Plan{
		Events: []fault.Event{{At: 100 * time.Millisecond, Site: 1, Kind: fault.Slowdown, Factor: 50}},
		// The healthy cluster's own batch queueing puts its p99 a few×
		// above the median; 5× clears that while the 50× slowdown (p99
		// ~33× median) still trips it.
		Tuning: config.Tuning{SpeculateAfter: time.Hour, StragglerFactor: 5, WatchdogMinSamples: 2},
	}
	res := mustRun(t, cfg)
	if got, want := creditTotal(res), cfg.Queries[0].Index.NumChunks(); got != want {
		t.Errorf("credited %d jobs, want %d", got, want)
	}
	if res.Faults.LatencyFlags != 1 {
		t.Errorf("LatencyFlags = %d, want exactly 1 (the slowed cluster, no false positives)", res.Faults.LatencyFlags)
	}
	if res.Faults.Speculated == 0 {
		t.Error("flag produced no speculative copies")
	}

	// Replayable: a second run of the same plan is byte-identical.
	if again := mustRun(t, cfg); !reflect.DeepEqual(res, again) {
		t.Error("watchdog run is not deterministic")
	}

	// The healthy cluster raced the straggler for the speculated jobs and
	// won some: its stolen-commit count is exactly the work it rescued, and
	// every losing copy surfaced as a deduplicated commit.
	if res.Clusters[0].Jobs.Stolen == 0 {
		t.Error("healthy cluster committed none of the speculated jobs")
	}
	if res.Faults.DupCommits == 0 {
		t.Error("no commit was deduplicated — copies never raced")
	}

	// Negative factor: watchdog off, nothing is flagged or speculated.
	cfg.Faults.Tuning.StragglerFactor = -1
	off := mustRun(t, cfg)
	if off.Faults.LatencyFlags != 0 || off.Faults.Speculated != 0 {
		t.Errorf("disabled watchdog still acted: %+v", off.Faults)
	}
	if got, want := creditTotal(off), cfg.Queries[0].Index.NumChunks(); got != want {
		t.Errorf("disabled-watchdog run credited %d jobs, want %d", got, want)
	}
	if off.Clusters[0].Jobs.Stolen != 0 {
		t.Errorf("disabled-watchdog run still duplicated work: %+v", off.Clusters[0].Jobs)
	}
}

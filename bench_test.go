// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation:
//
//	BenchmarkFig1_*     — processing-structure comparison (real engines)
//	BenchmarkFig3_*     — execution-time decomposition over the five envs
//	BenchmarkTable1_*   — job assignment / stealing counts
//	BenchmarkTable2_*   — slowdown decomposition
//	BenchmarkFig4_*     — scalability sweep, all data in S3
//	BenchmarkHeadline   — the paper's two summary numbers
//	BenchmarkAblation_* — design-choice ablations
//
// Simulated experiments report their virtual makespans and derived paper
// metrics via b.ReportMetric (sim_s, slowdown_pct, efficiency_pct, …);
// real-engine benchmarks measure actual ns/op.
package repro

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/bufpool"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/head"
	"repro/internal/hybridsim"
	"repro/internal/jobs"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/stagecache"
	"repro/internal/workload"
)

// ---------------------------------------------------------------- Figure 1

// fig1Data builds the small in-memory datasets shared by the Fig1 benches.
func fig1Points(b *testing.B, n int64, dim int) (*chunk.Index, chunk.Source, apps.KNNParams, apps.KMeansParams) {
	b.Helper()
	gen := workload.ClusteredPoints{Seed: 7, Dim: dim, K: 8, Spread: 0.05}
	ix, err := chunk.Layout("b1", n, gen.UnitSize(), 20000, 2000)
	if err != nil {
		b.Fatal(err)
	}
	src := chunk.NewMemSource(ix)
	if err := workload.Build(ix, gen, src); err != nil {
		b.Fatal(err)
	}
	q := make([]float64, dim)
	centers := make([][]float64, 8)
	for i := range q {
		q[i] = 0.5
	}
	for k := range centers {
		centers[k] = gen.TrueCenter(k)
	}
	return ix, src,
		apps.KNNParams{K: 10, Dim: dim, Query: q},
		apps.KMeansParams{K: 8, Dim: dim, Centers: centers}
}

func benchGR(b *testing.B, r core.Reducer, ix *chunk.Index, src chunk.Source) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(core.EngineConfig{Reducer: r, Workers: 2, UnitSize: ix.UnitSize}, ix, src); err != nil {
			b.Fatal(err)
		}
	}
}

func benchMR(b *testing.B, job mapreduce.Job, ix *chunk.Index, src chunk.Source) {
	b.Helper()
	b.ReportAllocs()
	job.Workers = 2
	var pairs int64
	for i := 0; i < b.N; i++ {
		res, err := mapreduce.Run(job, ix, src)
		if err != nil {
			b.Fatal(err)
		}
		pairs = res.Metrics.PeakBufferedPairs
	}
	b.ReportMetric(float64(pairs), "peak_pairs")
}

func BenchmarkFig1_KNN_GeneralizedReduction(b *testing.B) {
	ix, src, knnP, _ := fig1Points(b, 50_000, 8)
	r, err := apps.NewKNNReducer(knnP)
	if err != nil {
		b.Fatal(err)
	}
	benchGR(b, r, ix, src)
}

func BenchmarkFig1_KNN_MapReduce(b *testing.B) {
	ix, src, knnP, _ := fig1Points(b, 50_000, 8)
	job, err := apps.KNNMRJob(knnP, false)
	if err != nil {
		b.Fatal(err)
	}
	benchMR(b, job, ix, src)
}

func BenchmarkFig1_KNN_MRCombine(b *testing.B) {
	ix, src, knnP, _ := fig1Points(b, 50_000, 8)
	job, err := apps.KNNMRJob(knnP, true)
	if err != nil {
		b.Fatal(err)
	}
	benchMR(b, job, ix, src)
}

func BenchmarkFig1_KMeans_GeneralizedReduction(b *testing.B) {
	ix, src, _, kmP := fig1Points(b, 50_000, 8)
	r, err := apps.NewKMeansReducer(kmP)
	if err != nil {
		b.Fatal(err)
	}
	benchGR(b, r, ix, src)
}

func BenchmarkFig1_KMeans_MapReduce(b *testing.B) {
	ix, src, _, kmP := fig1Points(b, 50_000, 8)
	job, err := apps.KMeansMRJob(kmP, false)
	if err != nil {
		b.Fatal(err)
	}
	benchMR(b, job, ix, src)
}

func BenchmarkFig1_KMeans_MRCombine(b *testing.B) {
	ix, src, _, kmP := fig1Points(b, 50_000, 8)
	job, err := apps.KMeansMRJob(kmP, true)
	if err != nil {
		b.Fatal(err)
	}
	benchMR(b, job, ix, src)
}

func fig1Graph(b *testing.B) (*chunk.Index, chunk.Source, apps.PageRankParams) {
	b.Helper()
	gen := &workload.PowerLawGraph{Seed: 9, Nodes: 2000, Edges: 100_000}
	ix, err := chunk.Layout("b1g", 100_000, workload.EdgeUnitSize, 40000, 4000)
	if err != nil {
		b.Fatal(err)
	}
	src := chunk.NewMemSource(ix)
	if err := workload.Build(ix, gen, src); err != nil {
		b.Fatal(err)
	}
	return ix, src, apps.PageRankParams{Nodes: 2000, Damping: 0.85}
}

func BenchmarkFig1_PageRank_GeneralizedReduction(b *testing.B) {
	ix, src, p := fig1Graph(b)
	r, err := apps.NewPageRankReducer(p)
	if err != nil {
		b.Fatal(err)
	}
	benchGR(b, r, ix, src)
}

func BenchmarkFig1_PageRank_MapReduce(b *testing.B) {
	ix, src, p := fig1Graph(b)
	job, err := apps.PageRankMRJob(p, false)
	if err != nil {
		b.Fatal(err)
	}
	benchMR(b, job, ix, src)
}

func BenchmarkFig1_PageRank_MRCombine(b *testing.B) {
	ix, src, p := fig1Graph(b)
	job, err := apps.PageRankMRJob(p, true)
	if err != nil {
		b.Fatal(err)
	}
	benchMR(b, job, ix, src)
}

// ---------------------------------------------------------------- Figure 3

// benchFig3 reruns the five environments each iteration and reports the
// paper's metrics for the app.
func benchFig3(b *testing.B, app experiments.App) {
	var res *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig3(app)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Baseline().Sim.Total.Seconds(), "envlocal_sim_s")
	b.ReportMetric(100*res.Slowdown(experiments.Env5050), "slow5050_pct")
	b.ReportMetric(100*res.Slowdown(experiments.Env3367), "slow3367_pct")
	b.ReportMetric(100*res.Slowdown(experiments.Env1783), "slow1783_pct")
}

func BenchmarkFig3_KNN(b *testing.B)      { benchFig3(b, experiments.KNN) }
func BenchmarkFig3_KMeans(b *testing.B)   { benchFig3(b, experiments.KMeans) }
func BenchmarkFig3_PageRank(b *testing.B) { benchFig3(b, experiments.PageRank) }

// ----------------------------------------------------- Observability overhead

// benchFig3Obs reruns the Figure-3 sweep with an Obs bundle attached.
func benchFig3Obs(b *testing.B, trace bool) {
	for i := 0; i < b.N; i++ {
		// Fresh bundle per iteration so an enabled tracer doesn't accumulate
		// events across iterations.
		o := obs.New(nil)
		if trace {
			o.Tracer.Enable()
		}
		for _, env := range experiments.Envs {
			cfg := experiments.Config(experiments.KNN, env, experiments.SimOptions{})
			cfg.Obs = o
			if _, err := hybridsim.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig3_KNN_ObsDisabled is the tentpole's overhead guard: the full
// Figure-3 sweep with metrics attached and the tracer DISABLED must stay
// within 2% of BenchmarkFig3_KNN (which runs with no Obs at all). Compare:
//
//	go test -run=NONE -bench 'Fig3_KNN$|Fig3_KNN_ObsDisabled' -benchtime 5x .
func BenchmarkFig3_KNN_ObsDisabled(b *testing.B) { benchFig3Obs(b, false) }

// BenchmarkFig3_KNN_ObsTracing measures the fully-enabled path (per-job
// event recording) for comparison; this one is allowed to cost more.
func BenchmarkFig3_KNN_ObsTracing(b *testing.B) { benchFig3Obs(b, true) }

// ----------------------------------------------------------------- Table I

func BenchmarkTable1_JobAssignment(b *testing.B) {
	var res *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig3(experiments.KNN)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, env := range experiments.HybridEnvs {
		cell := res.Cell(env)
		stolen := 0
		for _, c := range cell.Sim.Clusters {
			stolen += c.Jobs.Stolen
		}
		b.ReportMetric(float64(stolen), fmt.Sprintf("stolen_%s", short(env)))
	}
}

// ---------------------------------------------------------------- Table II

func BenchmarkTable2_Slowdowns(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(experiments.KNN)
		if err != nil {
			b.Fatal(err)
		}
		rows = res.Table2()
	}
	for _, row := range rows {
		b.ReportMetric(row.GlobalReduction.Seconds(), "globalred_"+short(row.Env)+"_s")
		b.ReportMetric(row.IdleTime.Seconds(), "idle_"+short(row.Env)+"_s")
	}
}

func short(e experiments.Env) string {
	switch e {
	case experiments.Env5050:
		return "5050"
	case experiments.Env3367:
		return "3367"
	case experiments.Env1783:
		return "1783"
	}
	return string(e)
}

// ---------------------------------------------------------------- Figure 4

func benchFig4(b *testing.B, app experiments.App) {
	var res *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig4(app)
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, e := range res.Efficiency() {
		m := experiments.ScalePoints[i+1]
		b.ReportMetric(100*e, fmt.Sprintf("eff_%dx%d_pct", m, m))
	}
}

func BenchmarkFig4_KNN(b *testing.B)      { benchFig4(b, experiments.KNN) }
func BenchmarkFig4_KMeans(b *testing.B)   { benchFig4(b, experiments.KMeans) }
func BenchmarkFig4_PageRank(b *testing.B) { benchFig4(b, experiments.PageRank) }

// ---------------------------------------------------------------- Headline

func BenchmarkHeadline(b *testing.B) {
	var h *experiments.Headline
	for i := 0; i < b.N; i++ {
		var err error
		h, _, _, err = experiments.RunHeadline()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(h.AvgSlowdownPct, "avg_slowdown_pct")  // paper: 15.55
	b.ReportMetric(h.AvgEfficiencyPct, "avg_scaling_pct") // paper: 81
}

// --------------------------------------------------------------- Ablations

func benchSim(b *testing.B, cfg hybridsim.Config) *hybridsim.Result {
	b.Helper()
	var res *hybridsim.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = hybridsim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Total.Seconds(), "sim_s")
	b.ReportMetric(float64(res.Seeks), "seeks")
	return res
}

func BenchmarkAblation_ConsecutiveJobs(b *testing.B) {
	benchSim(b, experiments.Config(experiments.KNN, experiments.EnvLocal, experiments.SimOptions{}))
}

func BenchmarkAblation_ScatteredJobs(b *testing.B) {
	benchSim(b, experiments.Config(experiments.KNN, experiments.EnvLocal,
		experiments.SimOptions{Pool: jobs.Options{ScatterGroups: true}}))
}

func BenchmarkAblation_StealMinContention(b *testing.B) {
	benchSim(b, experiments.Config(experiments.KNN, experiments.Env1783, experiments.SimOptions{}))
}

func BenchmarkAblation_StealRoundRobin(b *testing.B) {
	benchSim(b, experiments.Config(experiments.KNN, experiments.Env1783,
		experiments.SimOptions{Pool: jobs.Options{Steal: jobs.StealRoundRobin}}))
}

func BenchmarkAblation_RetrievalThreads_Full(b *testing.B) {
	benchSim(b, experiments.Config(experiments.KNN, experiments.EnvCloud, experiments.SimOptions{}))
}

func BenchmarkAblation_RetrievalThreads_Quarter(b *testing.B) {
	benchSim(b, experiments.Config(experiments.KNN, experiments.EnvCloud,
		experiments.SimOptions{RetrievalThreadsPerCore: 0.25}))
}

// BenchmarkAblation_UnitGrouping measures the cache-aware unit-group
// batching on the real engine: tiny groups (per-unit dispatch overhead)
// vs the default cache-sized groups vs whole-chunk groups.
func benchUnitGrouping(b *testing.B, groupBytes int) {
	ix, src, _, kmP := fig1Points(b, 50_000, 8)
	r, err := apps.NewKMeansReducer(kmP)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(core.EngineConfig{
			Reducer: r, Workers: 2, UnitSize: ix.UnitSize, GroupBytes: groupBytes,
		}, ix, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_UnitGrouping_Tiny(b *testing.B)  { benchUnitGrouping(b, 64) }
func BenchmarkAblation_UnitGrouping_Cache(b *testing.B) { benchUnitGrouping(b, 256<<10) }
func BenchmarkAblation_UnitGrouping_Chunk(b *testing.B) { benchUnitGrouping(b, 1<<30) }

// BenchmarkAblation_IntermediateMemory contrasts GR's zero intermediate
// state with MR's buffered pairs on the same computation (Figure 1's
// memory argument, as a bench).
func BenchmarkAblation_IntermediateMemory_GR(b *testing.B) {
	ix, src, _, kmP := fig1Points(b, 50_000, 8)
	r, err := apps.NewKMeansReducer(kmP)
	if err != nil {
		b.Fatal(err)
	}
	benchGR(b, r, ix, src)
	b.ReportMetric(0, "peak_pairs")
}

func BenchmarkAblation_IntermediateMemory_MR(b *testing.B) {
	ix, src, _, kmP := fig1Points(b, 50_000, 8)
	job, err := apps.KMeansMRJob(kmP, false)
	if err != nil {
		b.Fatal(err)
	}
	benchMR(b, job, ix, src)
}

// TestObsOverheadGate is the automated half of `make bench-obs`: it runs
// the Figure-3 KNN sweep bare and with a disabled-tracer Obs attached and
// fails when the disabled-observability overhead exceeds 2%. The asserted
// quantities are heap allocations (count and bytes) — deterministic, and
// the only mechanism by which the nil-safe fast path could grow a real
// cost — because shared CI runners jitter wall-clock far beyond the
// budget itself (we observed ±50% on loaded machines); elapsed time is
// measured and logged for humans but never asserted. Opt-in via
// BENCH_OBS_GATE=1 so the default unit run stays timing-free.
func TestObsOverheadGate(t *testing.T) {
	if os.Getenv("BENCH_OBS_GATE") == "" {
		t.Skip("set BENCH_OBS_GATE=1 to run the observability overhead gate")
	}
	sweep := func(o *obs.Obs) {
		for _, env := range experiments.Envs {
			cfg := experiments.Config(experiments.KNN, env, experiments.SimOptions{})
			cfg.Obs = o
			if _, err := hybridsim.Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	const rounds = 10
	measure := func(mk func() *obs.Obs) (allocs, bytes uint64, elapsed time.Duration) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < rounds; i++ {
			sweep(mk())
		}
		elapsed = time.Since(start)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, elapsed
	}
	sweep(nil) // warm-up
	bareN, bareB, bareT := measure(func() *obs.Obs { return nil })
	obsN, obsB, obsT := measure(func() *obs.Obs { return obs.New(nil) }) // metrics on, tracer off

	pct := func(with, without uint64) float64 {
		return 100 * (float64(with) - float64(without)) / float64(without)
	}
	t.Logf("allocs %d → %d (%+.2f%%), bytes %d → %d (%+.2f%%), time %v → %v (%+.2f%%)",
		bareN, obsN, pct(obsN, bareN), bareB, obsB, pct(obsB, bareB),
		bareT, obsT, pct(uint64(obsT), uint64(bareT)))
	if d := pct(obsN, bareN); d > 2 {
		t.Errorf("disabled-observability alloc-count overhead %.2f%% exceeds the 2%% budget", d)
	}
	if d := pct(obsB, bareB); d > 2 {
		t.Errorf("disabled-observability alloc-bytes overhead %.2f%% exceeds the 2%% budget", d)
	}

	// Stage-cache metrics leg: the cache pre-resolves its counters at
	// construction, so steady-state hits with a registry attached must cost
	// the same heap allocations as with metrics disabled (nil registry).
	ix, err := chunk.Layout("obs-cache", 4096, 16, 1024, 256)
	if err != nil {
		t.Fatal(err)
	}
	src := chunk.NewMemSource(ix)
	for _, f := range ix.Files {
		if err := src.WriteFile(f.Name, make([]byte, f.Size)); err != nil {
			t.Fatal(err)
		}
	}
	refs := ix.AllRefs()
	// Per-hit allocations, averaged over many hits: a steady-state hit
	// allocates nothing, so the handful of process-wide runtime mallocs
	// that land in any window must not decide the comparison.
	measureCache := func(reg *obs.Registry) (allocsPerHit float64) {
		c := stagecache.New(stagecache.Config{CapacityBytes: ix.TotalBytes() * 2}, reg)
		defer c.Close()
		wrapped := c.Wrap(1, src)
		i := 0
		hit := func() {
			data, err := wrapped.ReadChunk(refs[i%len(refs)])
			if err != nil {
				t.Fatal(err)
			}
			bufpool.Put(data)
			i++
		}
		for range refs {
			hit() // populate the memory tier
		}
		allocsPerHit = testing.AllocsPerRun(100*rounds*len(refs), hit)
		if reg != nil {
			if snap := reg.Snapshot(); snap["stagecache_hits_total"] == 0 {
				t.Error("registry recorded no stagecache hits — metrics not wired")
			}
		}
		return allocsPerHit
	}
	cacheBareN := measureCache(nil)
	cacheRegN := measureCache(obs.NewRegistry())
	t.Logf("stagecache allocs per hit %v → %v", cacheBareN, cacheRegN)
	if cacheRegN != cacheBareN {
		t.Errorf("stagecache metrics cost %v allocs per hit, %v without a registry", cacheRegN, cacheBareN)
	}
}

// TestElasticOverheadGate is the automated half of `make bench-elastic`: the
// elasticity-must-be-free-when-off promise. It runs the Figure-3 KNN workload
// through the multi-query engine twice — once with no elastic hook at all and
// once with the hook attached but inert (an arbiter that never scales, so
// only the engine-side plumbing runs: the virtual-clock tick and the per-query
// remaining-bytes snapshot handed to Decide) — and fails when the disabled
// arbiter costs more than 2% extra heap allocations. As with
// TestObsOverheadGate, allocations are the asserted quantity because they are
// deterministic; wall-clock is logged for humans but never asserted. Opt-in
// via BENCH_ELASTIC_GATE=1.
func TestElasticOverheadGate(t *testing.T) {
	if os.Getenv("BENCH_ELASTIC_GATE") == "" {
		t.Skip("set BENCH_ELASTIC_GATE=1 to run the elastic overhead gate")
	}
	sweep := func(hook bool) {
		for _, env := range experiments.Envs {
			cfg := experiments.Config(experiments.KNN, env, experiments.SimOptions{})
			if hook {
				cfg.Elastic = &hybridsim.ElasticSim{Interval: 5 * time.Second,
					Decide: func(time.Duration, []head.QueryLoad, []int) hybridsim.ElasticDecision {
						return hybridsim.ElasticDecision{}
					}}
			}
			if _, err := hybridsim.Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	const rounds = 10
	measure := func(hook bool) (allocs, bytes uint64, elapsed time.Duration) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < rounds; i++ {
			sweep(hook)
		}
		elapsed = time.Since(start)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, elapsed
	}
	sweep(false) // warm-up
	offN, offB, offT := measure(false)
	onN, onB, onT := measure(true)

	pct := func(with, without uint64) float64 {
		return 100 * (float64(with) - float64(without)) / float64(without)
	}
	t.Logf("allocs %d → %d (%+.2f%%), bytes %d → %d (%+.2f%%), time %v → %v (%+.2f%%)",
		offN, onN, pct(onN, offN), offB, onB, pct(onB, offB),
		offT, onT, pct(uint64(onT), uint64(offT)))
	if d := pct(onN, offN); d > 2 {
		t.Errorf("disabled-arbiter alloc-count overhead %.2f%% exceeds the 2%% budget", d)
	}
	if d := pct(onB, offB); d > 2 {
		t.Errorf("disabled-arbiter alloc-bytes overhead %.2f%% exceeds the 2%% budget", d)
	}
}

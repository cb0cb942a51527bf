package hybridsim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/jobs"
)

// stageTopology is a single cloud cluster (site 1) reading a dataset split
// between the remote origin (site 0, behind a constrained WAN) and its own
// site, with a burst-side replica co-located at site 1.
func stageTopology(stage *StageModel) Topology {
	return Topology{
		Clusters: []ClusterModel{
			{Name: "cloud", Site: 1, Cores: 4, RetrievalThreads: 4},
		},
		SourceEgress: map[int]float64{0: 200 << 20, 1: 400 << 20},
		Paths: map[[2]int]PathModel{
			{0, 0}: {Bandwidth: 40 << 20, Latency: 40 * time.Millisecond},
			{0, 1}: {Bandwidth: 400 << 20, Latency: 2 * time.Millisecond},
		},
		ControlLatency: 5 * time.Millisecond,
		Stage:          stage,
	}
}

func stageModel() *StageModel {
	return &StageModel{
		Site:         1,
		ServeRate:    400 << 20,
		ServeLatency: 2 * time.Millisecond,
		StagePath:    PathModel{Bandwidth: 40 << 20, Latency: 40 * time.Millisecond},
		StageStreams: 4,
	}
}

func stageQuery(t *testing.T, name string, files int, iterations int) MultiQuery {
	t.Helper()
	return MultiQuery{
		Name:       name,
		App:        multiApp(name, 64<<20),
		Index:      multiIndex(t, name, files, 4),
		Placement:  jobs.SplitByFraction(files, 0.5, 0, 1),
		Iterations: iterations,
	}
}

// TestMultiStageWarmIterationHits: an iterative query re-reading a half-
// remote dataset through the replica misses on pass 0 (read-through +
// pre-stage fill it) and hits on every cache-eligible read of pass 1 —
// the warm pass runs at replica rates, never re-crossing the WAN.
func TestMultiStageWarmIterationHits(t *testing.T) {
	cfg := MultiConfig{
		Topology: stageTopology(stageModel()),
		Seed:     11,
		Queries:  []MultiQuery{stageQuery(t, "pagerank", 8, 2)},
	}
	res, err := RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stage == nil {
		t.Fatal("staged run reported no Stage stats")
	}
	if len(res.Stage.ByIter) < 2 {
		t.Fatalf("want per-iteration stats for 2 passes, got %d", len(res.Stage.ByIter))
	}
	warm := res.Stage.ByIter[1]
	if warm.Hits+warm.Misses == 0 {
		t.Fatal("warm pass saw no cache-eligible reads")
	}
	rate := float64(warm.Hits) / float64(warm.Hits+warm.Misses)
	if rate < 0.9 {
		t.Errorf("warm-iteration hit rate %.2f, want >= 0.90 (%d hits / %d misses)",
			rate, warm.Hits, warm.Misses)
	}
	// Both passes perform the full job count.
	want := 2 * cfg.Queries[0].Index.NumChunks()
	got := 0
	for _, acct := range res.Queries[0].Jobs {
		got += acct.Total()
	}
	if got != want {
		t.Errorf("iterative query processed %d jobs, want %d", got, want)
	}
	if n := len(res.Queries[0].IterFinish); n != 2 {
		t.Fatalf("want 2 IterFinish entries, got %d", n)
	}
	cold := res.Queries[0].IterFinish[0]
	warmDur := res.Queries[0].IterFinish[1] - cold
	if warmDur >= cold {
		t.Errorf("warm pass (%v) not faster than cold pass (%v)", warmDur, cold)
	}
	// The cache pays overall: the same run without a replica is slower.
	cfg2 := cfg
	cfg2.Topology = stageTopology(nil)
	bare, err := RunMulti(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total >= bare.Total {
		t.Errorf("staged run %v not faster than unstaged %v", res.Total, bare.Total)
	}
	// Determinism: same config, byte-identical results.
	again, err := RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Errorf("same seed produced different staged results:\n%+v\n%+v", res, again)
	}
}

// TestMultiStageAccounting: replica reads are accounted once — each
// cluster's StageReadBytes plus origin BytesBySite equals the bytes it
// processed, pre-staged bytes are billed per origin site only, and the
// replica never caches its own site's data.
func TestMultiStageAccounting(t *testing.T) {
	cfg := MultiConfig{
		Topology: stageTopology(stageModel()),
		Seed:     5,
		Queries:  []MultiQuery{stageQuery(t, "knn", 8, 2)},
	}
	res, err := RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perChunk := cfg.Queries[0].Index.Files[0].Chunks[0].Size
	for _, c := range res.Clusters {
		var fromSites int64
		for _, b := range c.BytesBySite {
			fromSites += b
		}
		processed := int64(c.Jobs.Total()) * perChunk
		if fromSites+c.StageReadBytes != processed {
			t.Errorf("cluster %s: BytesBySite %d + StageReadBytes %d != processed %d",
				c.Name, fromSites, c.StageReadBytes, processed)
		}
	}
	st := res.Stage
	if st.Hits == 0 || st.HitBytes == 0 {
		t.Error("iterative staged run recorded no hits")
	}
	if _, ok := st.PrestagedBySite[1]; ok {
		t.Error("replica staged data whose origin is the replica site itself")
	}
	var prestaged int64
	for _, b := range st.PrestagedBySite {
		prestaged += b
	}
	if prestaged != st.PrestagedBytes {
		t.Errorf("PrestagedBySite sums to %d, PrestagedBytes is %d", prestaged, st.PrestagedBytes)
	}
}

// TestMultiStageEviction: a replica smaller than the remote partition
// evicts FIFO and never exceeds its capacity.
func TestMultiStageEviction(t *testing.T) {
	sm := stageModel()
	sm.CapacityBytes = 3 << 20 // three 1 MiB chunks; the remote half is 16
	cfg := MultiConfig{
		Topology: stageTopology(sm),
		Seed:     9,
		Queries:  []MultiQuery{stageQuery(t, "knn", 8, 2)},
	}
	res, err := RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stage.Evictions == 0 {
		t.Error("undersized replica recorded no evictions")
	}
	if res.Stage.ResidentBytes > sm.CapacityBytes {
		t.Errorf("resident %d bytes exceeds capacity %d", res.Stage.ResidentBytes, sm.CapacityBytes)
	}
	// Work still completes exactly once per pass.
	want := 2 * cfg.Queries[0].Index.NumChunks()
	got := 0
	for _, acct := range res.Queries[0].Jobs {
		got += acct.Total()
	}
	if got != want {
		t.Errorf("processed %d jobs, want %d", got, want)
	}
}

// TestMultiIterationsWithoutStage: the iteration machinery is independent
// of the cache — an unstaged 3-pass query processes 3× the jobs with
// monotone pass finishes.
func TestMultiIterationsWithoutStage(t *testing.T) {
	cfg := MultiConfig{
		Topology: stageTopology(nil),
		Seed:     2,
		Queries:  []MultiQuery{stageQuery(t, "kmeans", 4, 3)},
	}
	res, err := RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * cfg.Queries[0].Index.NumChunks()
	got := 0
	for _, acct := range res.Queries[0].Jobs {
		got += acct.Total()
	}
	if got != want {
		t.Errorf("processed %d jobs, want %d", got, want)
	}
	fin := res.Queries[0].IterFinish
	if len(fin) != 3 {
		t.Fatalf("want 3 IterFinish entries, got %d", len(fin))
	}
	for i := 1; i < len(fin); i++ {
		if fin[i] <= fin[i-1] {
			t.Errorf("pass %d finished at %v, not after pass %d at %v", i, fin[i], i-1, fin[i-1])
		}
	}
	if fin[2] != res.Queries[0].Finish {
		t.Errorf("last IterFinish %v != Finish %v", fin[2], res.Queries[0].Finish)
	}
}

// TestElasticLaunchDelay: a worker with a modelled boot delay is billed
// from the launch request but contributes no work until the delay elapses,
// so the run finishes later than with instant boot — while the Decide hook
// sees the booting worker immediately and never double-provisions.
func TestElasticLaunchDelay(t *testing.T) {
	run := func(delay time.Duration) (*MultiResult, []time.Duration, int) {
		var launches []time.Duration
		adds := 0
		cfg := MultiConfig{
			Topology: stageTopology(nil),
			Seed:     4,
			Queries:  []MultiQuery{stageQuery(t, "knn", 8, 1)},
			Elastic: &ElasticSim{
				Interval: 200 * time.Millisecond,
				Worker:   ClusterModel{Cores: 4, RetrievalThreads: 4},
				WorkerPaths: map[int]PathModel{
					0: {Bandwidth: 40 << 20, Latency: 40 * time.Millisecond},
					1: {Bandwidth: 400 << 20, Latency: 2 * time.Millisecond},
				},
				LaunchDelay: delay,
				OnLaunch:    func(now time.Duration, site int) { launches = append(launches, now) },
				Decide: func(now time.Duration, loads []ElasticLoad, workers []int) ElasticDecision {
					if len(workers) == 0 {
						adds++
						return ElasticDecision{Add: 1}
					}
					return ElasticDecision{}
				},
			},
		}
		res, err := RunMulti(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, launches, adds
	}
	instant, launchA, addsA := run(0)
	delayed, launchB, addsB := run(5 * time.Second)
	if addsA != 1 || addsB != 1 {
		t.Errorf("Decide double-provisioned: %d and %d launches requested", addsA, addsB)
	}
	if len(launchA) != 1 || len(launchB) != 1 || launchA[0] != launchB[0] {
		t.Errorf("billing instant moved with boot delay: %v vs %v", launchA, launchB)
	}
	if delayed.Total <= instant.Total {
		t.Errorf("5s boot delay did not slow the run: delayed %v <= instant %v",
			delayed.Total, instant.Total)
	}
}

// TestElasticLoadsKeepQueryBetweenPasses: a pass boundary of an iterative
// query — its pool drained, the global reduction in flight, the next pass not
// yet queued — is not the end of the query. The hook must keep seeing the
// query (with nothing remaining) across every boundary, so a policy that
// releases the fleet once no query is left (as the arbiter does) holds its
// burst worker until the last pass has drained.
func TestElasticLoadsKeepQueryBetweenPasses(t *testing.T) {
	q := stageQuery(t, "kmeans", 4, 3)
	q.App.MergeBytesPerSec = 4 << 20 // 250ms per merged object: a boundary spans several ticks
	type tick struct {
		at    time.Duration
		loads int
		rem   int64
	}
	var ticks []tick
	cfg := MultiConfig{
		Topology: stageTopology(nil),
		Seed:     2,
		Queries:  []MultiQuery{q},
		Elastic: &ElasticSim{
			Interval: 100 * time.Millisecond,
			Worker:   ClusterModel{Cores: 4, RetrievalThreads: 4},
			WorkerPaths: map[int]PathModel{
				0: {Bandwidth: 40 << 20, Latency: 40 * time.Millisecond},
				1: {Bandwidth: 400 << 20, Latency: 2 * time.Millisecond},
			},
			Decide: func(now time.Duration, loads []ElasticLoad, workers []int) ElasticDecision {
				tk := tick{at: now, loads: len(loads)}
				for _, l := range loads {
					for _, b := range l.Remaining {
						tk.rem += b
					}
				}
				ticks = append(ticks, tk)
				switch {
				case len(loads) == 0:
					return ElasticDecision{Drain: workers}
				case len(workers) == 0:
					return ElasticDecision{Add: 1}
				}
				return ElasticDecision{}
			},
		},
	}
	res, err := RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fin := res.Queries[0].IterFinish
	if len(fin) != 3 {
		t.Fatalf("want 3 IterFinish entries, got %d", len(fin))
	}
	// Ticks that fell inside a boundary: the query listed, nothing remaining,
	// and a later pass still to finish.
	inBoundary := map[int]int{}
	for _, tk := range ticks {
		if tk.loads == 0 && tk.at < fin[1] {
			t.Errorf("tick at %v saw no query, but pass 2 only finished at %v", tk.at, fin[1])
		}
		if tk.loads == 1 && tk.rem == 0 {
			for pass := 0; pass < 2; pass++ {
				if tk.at <= fin[pass] && (pass == 0 || tk.at > fin[pass-1]) {
					inBoundary[pass]++
				}
			}
		}
	}
	if inBoundary[0] == 0 || inBoundary[1] == 0 {
		t.Fatalf("no tick landed inside both pass boundaries (%v) — the test no longer exercises them", inBoundary)
	}
	var burst *MultiClusterResult
	for i := range res.Clusters {
		if res.Clusters[i].Burst {
			burst = &res.Clusters[i]
		}
	}
	if burst == nil {
		t.Fatal("no burst worker was launched")
	}
	if burst.Drained != 0 && burst.Drained < fin[1] {
		t.Errorf("burst worker drained at %v, inside a pass boundary (pass 2 finished at %v)", burst.Drained, fin[1])
	}
}

package repro

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/head"
	"repro/internal/hybridsim"
	"repro/internal/jobs"
	"repro/internal/protocol"
	"repro/internal/stagecache"
)

// PR 8's cache-tier benchmark harness. `make bench-cache` runs
// TestEmitBenchCache with BENCH_CACHE_OUT set, which writes BENCH_8.json and
// asserts the PR's acceptance bars:
//
//   - ≥3× warm speedup on the sim benchmark: a cloud-only cluster re-scanning
//     a campus-hosted dataset runs its second pass from the burst-side
//     replica at S3 rates instead of back over the shared WAN pipe;
//   - <2% overhead with the cache disabled: the live data plane with no cache
//     interposed (and with one attached but inert) costs within 2% of the
//     bare path in heap allocations — the same deterministic quantity the
//     observability and elastic gates assert, because shared CI runners
//     jitter wall-clock far beyond the budget.

// cacheSumReducer sums little-endian uint32 units (the live workload).
type cacheSumReducer struct{}

type cacheSumObj struct{ total uint64 }

func (cacheSumReducer) NewObject() core.Object { return &cacheSumObj{} }
func (cacheSumReducer) LocalReduce(obj core.Object, unit []byte) error {
	obj.(*cacheSumObj).total += uint64(binary.LittleEndian.Uint32(unit))
	return nil
}
func (cacheSumReducer) GlobalReduce(dst, src core.Object) error {
	dst.(*cacheSumObj).total += src.(*cacheSumObj).total
	return nil
}
func (cacheSumReducer) Encode(obj core.Object) ([]byte, error) {
	return binary.LittleEndian.AppendUint64(nil, obj.(*cacheSumObj).total), nil
}
func (cacheSumReducer) Decode(data []byte) (core.Object, error) {
	if len(data) != 8 {
		return nil, fmt.Errorf("want 8 bytes, got %d", len(data))
	}
	return &cacheSumObj{total: binary.LittleEndian.Uint64(data)}, nil
}

func init() {
	core.Register("bench-cache-sum", func([]byte) (core.Reducer, error) { return cacheSumReducer{}, nil })
}

// simStagedMakespan runs the retrieval-bound sim benchmark: a 64-core cloud
// cluster scanning the full campus-hosted dataset (EnvLocal placement, no
// local cluster) for the given number of passes, with or without the
// burst-side cache model.
func simStagedMakespan(t *testing.T, staged bool, iterations int) (time.Duration, *hybridsim.StageStats) {
	t.Helper()
	cfg := experiments.ConfigWithCores(experiments.KNN, experiments.EnvLocal, 0, 64, experiments.SimOptions{})
	if staged {
		cfg.Topology.Stage = experiments.StageModel()
	}
	cfg.Queries[0].Iterations = iterations
	res, err := hybridsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Total, res.Stage
}

// liveCacheRun executes one in-proc cluster run over an own-site dataset with
// the given cache attached. With every source local, an attached cache is
// pure plumbing: Wrap bypasses own-site sources and the pre-stager sees no
// remote grants — exactly the fast path the <2% gate protects.
func liveCacheRun(t *testing.T, ix *chunk.Index, src *chunk.MemSource, want uint64, cache *stagecache.Cache) {
	t.Helper()
	pool, err := jobs.NewPool(ix, jobs.SplitByFraction(len(ix.Files), 1, 0, 1), jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := protocol.JobSpec{App: "bench-cache-sum", UnitSize: 4}
	if err := head.EncodeIndexSpec(&spec, ix); err != nil {
		t.Fatal(err)
	}
	h, err := head.New(head.Config{ExpectClusters: 1})
	if err != nil {
		t.Fatal(err)
	}
	q, err := h.Admit(head.QueryConfig{Pool: pool, Reducer: cacheSumReducer{}, Spec: spec, ExpectAll: true})
	if err != nil {
		t.Fatal(err)
	}
	exit := make(chan error, 1)
	go func() {
		exit <- cluster.RunAgent(context.Background(), cluster.AgentConfig{
			Site: 0, Name: "local", Cores: 4,
			Sources: map[int]chunk.Source{0: src},
			Cache:   cache,
			Head:    cluster.InProcAgent{Head: h},
		})
	}()
	obj, _, _, err := q.Wait(context.Background())
	h.Shutdown()
	if agentErr := <-exit; agentErr != nil {
		t.Fatal(agentErr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*cacheSumObj).total; got != want {
		t.Fatalf("final sum = %d, want %d", got, want)
	}
}

// benchCacheDataset builds the live workload: in-memory uint32 units.
func benchCacheDataset(t *testing.T) (*chunk.Index, *chunk.MemSource, uint64) {
	t.Helper()
	ix, err := chunk.Layout("sum", 200_000, 4, 20_000, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	src := chunk.NewMemSource(ix)
	var want uint64
	var unit int64
	for _, f := range ix.Files {
		buf := make([]byte, f.Size)
		for i := 0; i < int(f.Size/4); i++ {
			v := uint32(unit % 1009)
			binary.LittleEndian.PutUint32(buf[4*i:], v)
			want += uint64(v)
			unit++
		}
		if err := src.WriteFile(f.Name, buf); err != nil {
			t.Fatal(err)
		}
	}
	return ix, src, want
}

// memReplica is a trivial in-memory Replica for the inert-cache arm.
type memReplica map[string][]byte

func (r memReplica) Put(key string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	r[key] = cp
	return nil
}

func (r memReplica) Get(key string) ([]byte, error) {
	data, ok := r[key]
	if !ok {
		return nil, fmt.Errorf("no such key %q", key)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// TestEmitBenchCache runs the cache-tier benchmarks and writes BENCH_8.json.
// No-op unless BENCH_CACHE_OUT names the output file, so plain
// `go test ./...` stays fast.
func TestEmitBenchCache(t *testing.T) {
	out := os.Getenv("BENCH_CACHE_OUT")
	if out == "" {
		t.Skip("BENCH_CACHE_OUT not set; run via make bench-cache")
	}

	// Sim benchmark: a pass over the WAN with no cache vs a warm pass from
	// the replica. The warm-pass time is the two-pass makespan minus the
	// one-pass one — on the virtual clock both are exact, not sampled.
	stagedCold, _ := simStagedMakespan(t, true, 1)
	stagedTwo, stagedStats := simStagedMakespan(t, true, 2)
	stagedWarm := stagedTwo - stagedCold
	bareCold, _ := simStagedMakespan(t, false, 1)
	bareTwo, _ := simStagedMakespan(t, false, 2)
	bareWarm := bareTwo - bareCold
	// Warm speedup: the same scan cold with no cache (every byte over the
	// WAN) vs warm with the replica populated. The staged FIRST pass is
	// already faster than the uncached one — pre-staging overlaps bulk
	// staging with execution — so measuring against it would double-count
	// the cache's own benefit.
	speedup := bareCold.Seconds() / stagedWarm.Seconds()
	t.Logf("sim: uncached cold %.1fs, staged cold %.1fs, warm %.1fs (×%.2f); unstaged warm %.1fs",
		bareCold.Seconds(), stagedCold.Seconds(), stagedWarm.Seconds(), speedup, bareWarm.Seconds())
	if speedup < 3 {
		t.Errorf("warm pass is only %.2f× the cold pass, want ≥3×", speedup)
	}
	warmHitRate := 0.0
	if stagedStats != nil && len(stagedStats.ByIter) == 2 {
		warm := stagedStats.ByIter[1]
		if total := warm.Hits + warm.Misses; total > 0 {
			warmHitRate = float64(warm.Hits) / float64(total)
		}
	}
	if warmHitRate < 0.9 {
		t.Errorf("warm-pass hit rate %.2f, want ≥0.90", warmHitRate)
	}

	// Live disabled-overhead gate: the bare data plane vs the same workload
	// with an inert cache attached, in heap allocations.
	ix, src, want := benchCacheDataset(t)
	idle := stagecache.New(stagecache.Config{Replica: memReplica{}}, nil)
	defer idle.Close()
	const rounds = 10
	measure := func(cache *stagecache.Cache) (allocs, bytes uint64) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			liveCacheRun(t, ix, src, want, cache)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	liveCacheRun(t, ix, src, want, nil) // warm-up
	bareN, bareB := measure(nil)
	idleN, idleB := measure(idle)
	pct := func(with, without uint64) float64 {
		return 100 * (float64(with) - float64(without)) / float64(without)
	}
	t.Logf("live allocs %d → %d (%+.2f%%), bytes %d → %d (%+.2f%%)",
		bareN, idleN, pct(idleN, bareN), bareB, idleB, pct(idleB, bareB))
	if d := pct(idleN, bareN); d > 2 {
		t.Errorf("disabled-cache alloc-count overhead %.2f%% exceeds the 2%% budget", d)
	}
	if d := pct(idleB, bareB); d > 2 {
		t.Errorf("disabled-cache alloc-bytes overhead %.2f%% exceeds the 2%% budget", d)
	}

	report := map[string]any{
		"bench": "stagecache",
		"pr":    8,
		"sim_warm_speedup": map[string]any{
			"staged_cold_s":   stagedCold.Seconds(),
			"staged_warm_s":   stagedWarm.Seconds(),
			"unstaged_cold_s": bareCold.Seconds(),
			"unstaged_warm_s": bareWarm.Seconds(),
			"speedup":         speedup,
			"warm_hit_rate":   warmHitRate,
		},
		"disabled_overhead": map[string]any{
			"rounds":     rounds,
			"alloc_pct":  pct(idleN, bareN),
			"bytes_pct":  pct(idleB, bareB),
			"allocs_off": bareN,
			"allocs_on":  idleN,
		},
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s\n", out)
}

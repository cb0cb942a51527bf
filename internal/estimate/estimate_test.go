package estimate

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/hybridsim"
	"repro/internal/jobs"
)

// simpleConfig builds a single-cluster config with one clean bottleneck.
func simpleConfig(t *testing.T, computeBps, perStream, egress float64) hybridsim.Config {
	t.Helper()
	ix, err := chunk.Layout("e", 64*1024, 1024, 16*1024, 1024) // 64 MiB
	if err != nil {
		t.Fatal(err)
	}
	return hybridsim.Config{
		Queries: []hybridsim.Query{{
			Name:      "t",
			Index:     ix,
			Placement: jobs.SplitByFraction(len(ix.Files), 1, 0, 1),
			App: hybridsim.AppModel{
				Name:               "t",
				ComputeBytesPerSec: computeBps,
				MergeBytesPerSec:   1 << 40,
			},
		}},
		Topology: hybridsim.Topology{
			Clusters: []hybridsim.ClusterModel{
				{Name: "c", Site: 0, Cores: 4, RetrievalThreads: 4},
			},
			SourceEgress: map[int]float64{0: egress},
			Paths: map[[2]int]hybridsim.PathModel{
				{0, 0}: {PerStream: perStream},
			},
		},
	}
}

func TestComputeBoundExact(t *testing.T) {
	// 64 MiB at 4 cores × 1 MiB/s, retrieval ample: T = 16 s.
	cfg := simpleConfig(t, 1<<20, 100<<20, 1<<30)
	e, err := Makespan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Processing.Seconds(), 16.0; math.Abs(got-want) > 0.01 {
		t.Errorf("compute-bound T = %.3f s, want %.3f", got, want)
	}
}

func TestRetrievalBoundExact(t *testing.T) {
	// 64 MiB through 4 streams × 2 MiB/s = 8 MiB/s: T = 8 s.
	cfg := simpleConfig(t, 1<<30, 2<<20, 1<<30)
	e, err := Makespan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Processing.Seconds(), 8.0; math.Abs(got-want) > 0.01 {
		t.Errorf("retrieval-bound T = %.3f s, want %.3f", got, want)
	}
}

func TestEgressBoundExact(t *testing.T) {
	// 64 MiB through a 4 MiB/s disk: T = 16 s.
	cfg := simpleConfig(t, 1<<30, 100<<20, 4<<20)
	e, err := Makespan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Processing.Seconds(), 16.0; math.Abs(got-want) > 0.01 {
		t.Errorf("egress-bound T = %.3f s, want %.3f", got, want)
	}
}

func TestValidation(t *testing.T) {
	sites := func(n int) map[int]int64 {
		rem := make(map[int]int64, n)
		for s := 0; s < n; s++ {
			rem[s] = 1 << 20
		}
		return rem
	}
	noCores := simpleConfig(t, 1<<20, 1, 1)
	noCores.Topology.Clusters[0].Cores = 0
	for _, tc := range []struct {
		name string
		run  func() (Estimate, error)
		ok   bool
	}{
		{"empty config", func() (Estimate, error) { return Makespan(hybridsim.Config{}) }, false},
		{"zero compute rate", func() (Estimate, error) { return Makespan(simpleConfig(t, 0, 1, 1)) }, false},
		{"no cores", func() (Estimate, error) { return Makespan(noCores) }, false},
		{"16 data sites", func() (Estimate, error) {
			return MakespanRemaining(simpleConfig(t, 1<<20, 1<<20, 1<<20), sites(16))
		}, true},
		{"17 data sites", func() (Estimate, error) {
			return MakespanRemaining(simpleConfig(t, 1<<20, 1<<20, 1<<20), sites(17))
		}, false},
	} {
		_, err := tc.run()
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok %v", tc.name, err, tc.ok)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "estimate: ") {
			t.Errorf("%s: error %q lacks the package prefix", tc.name, err)
		}
	}
}

func TestGlobalReductionTail(t *testing.T) {
	cfg := simpleConfig(t, 1<<20, 100<<20, 1<<30)
	cfg.Topology.Clusters = append(cfg.Topology.Clusters, hybridsim.ClusterModel{
		Name: "cloud", Site: 1, Cores: 4, RetrievalThreads: 4,
	})
	cfg.Topology.Paths[[2]int{1, 0}] = hybridsim.PathModel{PerStream: 100 << 20}
	cfg.Queries[0].App.RobjBytes = 100 << 20
	cfg.Queries[0].App.MergeBytesPerSec = 1 << 30
	cfg.Topology.InterClusterBandwidth = 10 << 20
	cfg.Topology.InterClusterLatency = 100 * time.Millisecond

	e, err := Makespan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One payer: 100 MiB at 10 MiB/s = 10 s + latency + 2 merges ≈ 0.2 s.
	if e.GlobalReduction < 10*time.Second || e.GlobalReduction > 11*time.Second {
		t.Errorf("GR tail = %v, want ≈10.3s", e.GlobalReduction)
	}
}

// stagedConfig: a cloud cluster (site 1) draining 64 MiB hosted at site 0
// through a 4 MiB/s origin egress, with a burst-side replica at site 1.
func stagedConfig(t *testing.T, hitRate float64) hybridsim.Config {
	t.Helper()
	cfg := simpleConfig(t, 1<<30, 2<<20, 4<<20)
	cfg.Topology.Clusters[0].Site = 1
	cfg.Topology.Stage = &hybridsim.StageModel{
		Site:      1,
		ServeRate: 1 << 30,
		HitRate:   hitRate,
	}
	return cfg
}

func TestStagedEffectiveEgressExact(t *testing.T) {
	// No replica hits: unchanged egress bound, 64 MiB / 4 MiB/s = 16 s.
	e, err := Makespan(stagedConfig(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Processing.Seconds(), 16.0; math.Abs(got-want) > 0.01 {
		t.Errorf("hit-rate-0 T = %.3f s, want %.3f", got, want)
	}
	// Half the reads served by the replica: origin only carries (1-h), so
	// effective egress doubles to 8 MiB/s — but so must the cluster's path
	// edge (4 streams × 2 MiB/s blended the same way): T = 8 s.
	e, err = Makespan(stagedConfig(t, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Processing.Seconds(), 8.0; math.Abs(got-want) > 0.01 {
		t.Errorf("hit-rate-0.5 T = %.3f s, want %.3f", got, want)
	}
	// A claimed perfect cache clamps to 95%: egress 4/(0.05) = 80 MiB/s,
	// T = 64/80 = 0.8 s — finite, never free.
	e, err = Makespan(stagedConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Processing.Seconds(), 0.8; math.Abs(got-want) > 0.01 {
		t.Errorf("hit-rate-1 (clamped) T = %.3f s, want %.3f", got, want)
	}
}

func TestStagedBlendSkipsReplicaSiteAndLocalReads(t *testing.T) {
	// Data hosted AT the replica site is never cached: the blend must not
	// inflate its egress. Same egress-bound config, data moved to site 1.
	cfg := stagedConfig(t, 0.9)
	cfg.Queries[0].Placement = jobs.SplitByFraction(len(cfg.Queries[0].Index.Files), 1, 1, 0)
	cfg.Topology.SourceEgress = map[int]float64{1: 4 << 20}
	cfg.Topology.Paths = map[[2]int]hybridsim.PathModel{{0, 1}: {PerStream: 100 << 20}}
	e, err := Makespan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Processing.Seconds(), 16.0; math.Abs(got-want) > 0.01 {
		t.Errorf("replica-site data T = %.3f s, want %.3f (no blend)", got, want)
	}
	// A cluster co-located with the origin reads locally, not through the
	// replica: its edge must stay unblended even when a stage is configured.
	cfg = stagedConfig(t, 0.9)
	cfg.Topology.Clusters[0].Site = 0
	cfg.Topology.SourceEgress = map[int]float64{0: 1 << 30} // ample egress
	e, err = Makespan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Bound by the local path 4 × 2 MiB/s = 8 MiB/s: T = 8 s, not 8/(1-h).
	if got, want := e.Processing.Seconds(), 8.0; math.Abs(got-want) > 0.01 {
		t.Errorf("local-read T = %.3f s, want %.3f (no blend)", got, want)
	}
}

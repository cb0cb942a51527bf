package hybridsim

import (
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/jobs"
	"repro/internal/simtime"
)

// Simulator performance benchmarks: a full paper-scale experiment must stay
// in the low milliseconds so the whole evaluation sweep runs interactively.

func BenchmarkPaperScaleRun(b *testing.B) {
	cfg := benchCfg(b, 32, 30) // 960 jobs as in the paper
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLargeRun(b *testing.B) {
	cfg := benchCfg(b, 128, 75) // 9600 jobs — 10× the paper
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCfg(b *testing.B, files, chunksPerFile int) Config {
	b.Helper()
	const unit = 4096
	unitsPerChunk := 3276
	ix, err := chunk.Layout("bench", int64(files*chunksPerFile*unitsPerChunk), unit,
		chunksPerFile*unitsPerChunk, unitsPerChunk)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Queries: []Query{{
			Name:      "bench",
			Index:     ix,
			Placement: jobs.SplitByFraction(files, 0.5, 0, 1),
			App: AppModel{
				Name:               "bench",
				ComputeBytesPerSec: 50 << 20,
				RobjBytes:          1 << 20,
				MergeBytesPerSec:   1 << 30,
			},
		}},
		Topology: Topology{
			Clusters: []ClusterModel{
				{Name: "local", Site: 0, Cores: 16, RetrievalThreads: 8},
				{Name: "cloud", Site: 1, Cores: 16, RetrievalThreads: 8, Jitter: 0.1},
			},
			SourceEgress: map[int]float64{0: 400 << 20, 1: 500 << 20},
			Paths: map[[2]int]PathModel{
				{0, 0}: {PerStream: 25 << 20},
				{0, 1}: {Bandwidth: 128 << 20, PerStream: 8 << 20, Latency: 85 * time.Millisecond},
				{1, 1}: {PerStream: 26 << 20, Latency: 5 * time.Millisecond},
				{1, 0}: {Bandwidth: 128 << 20, PerStream: 8 << 20, Latency: 85 * time.Millisecond},
			},
			ControlLatency:        40 * time.Millisecond,
			InterClusterBandwidth: 100 << 20,
		},
		Seed: 7,
	}
	return cfg
}

func BenchmarkNetworkChurn(b *testing.B) {
	// Many overlapping transfers with constant rate recomputation.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clock := &simtime.Clock{}
		net := NewNetwork(clock)
		r := &Resource{Capacity: 1 << 30}
		remaining := 256
		var launch func()
		launch = func() {
			if remaining == 0 {
				return
			}
			remaining--
			net.Start(1<<20, 0, 4<<20, []*Resource{r}, launch)
		}
		for j := 0; j < 16; j++ {
			launch()
		}
		clock.Run()
	}
}

func BenchmarkClockEvents(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clock := &simtime.Clock{}
		for j := 0; j < 1000; j++ {
			clock.At(time.Duration(j)*time.Microsecond, func() {})
		}
		clock.Run()
	}
}

package estimate_test

import (
	"fmt"
	"testing"

	"repro/internal/elastic"
	"repro/internal/estimate"
	"repro/internal/experiments"
	"repro/internal/hybridsim"
)

// BenchmarkMakespanRemaining times one re-estimate of the arbiter's kind:
// 8 GiB left over the two data sites of the 50/50 environment, on the
// static fleet plus 0, 16 and 64 burst workers.
func BenchmarkMakespanRemaining(b *testing.B) {
	env := &elastic.Env{
		Base:        experiments.Config(experiments.KNN, experiments.Env5050, experiments.SimOptions{}),
		Worker:      hybridsim.ClusterModel{Cores: 4, CoreSpeed: 1, RetrievalThreads: 2},
		WorkerPaths: map[int]hybridsim.PathModel{0: {PerStream: 20 << 20}, 1: {PerStream: 20 << 20}},
	}
	remaining := map[int]int64{0: 4 << 30, 1: 4 << 30}
	for _, workers := range []int{0, 16, 64} {
		cfg := env.ConfigWith(workers)
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := estimate.MakespanRemaining(cfg, remaining); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

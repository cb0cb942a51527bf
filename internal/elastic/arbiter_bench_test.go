package elastic_test

import (
	"testing"
	"time"

	"repro/internal/elastic"
	"repro/internal/experiments"
	"repro/internal/hybridsim"
)

// BenchmarkArbiterStep times one model-based arbiter tick over eight
// policied queries on the 50/50 environment, each with its own deadline and
// gigabytes left on both data sites. Ticks run one second apart, and every
// 50 ticks a fresh arbiter starts, so the fleet the ticks estimate for
// follows the same 50-tick history at any b.N.
func BenchmarkArbiterStep(b *testing.B) {
	env := &elastic.Env{
		Base:        experiments.Config(experiments.KNN, experiments.Env5050, experiments.SimOptions{}),
		Worker:      hybridsim.ClusterModel{Cores: 4, CoreSpeed: 1, RetrievalThreads: 2},
		WorkerPaths: map[int]hybridsim.PathModel{0: {PerStream: 20 << 20}, 1: {PerStream: 20 << 20}},
	}
	loads := make([]elastic.QueryLoad, 8)
	for i := range loads {
		loads[i] = elastic.QueryLoad{
			Query: i, Weight: 1 + i%2,
			Policy:    &elastic.Policy{Deadline: time.Duration(10+i) * time.Minute, MaxWorkers: 4},
			Remaining: map[int]int64{0: int64(i+1) << 30, 1: int64(8-i) << 30},
		}
	}
	const ticks = 50
	var arb *elastic.Arbiter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%ticks == 0 {
			b.StopTimer()
			var err error
			if arb, err = elastic.NewArbiter(elastic.ArbiterConfig{}, env); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		arb.Step(time.Duration(i%ticks)*time.Second, loads)
	}
}

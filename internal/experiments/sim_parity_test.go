package experiments

import (
	"testing"

	"repro/internal/hybridsim"
)

// TestRunEqualsOneQueryMultiWithoutStealing pins what the two simulator
// loops already agree on: for every app in the centralized environments and
// the 50/50 split, where stealing is absent or a handful of jobs, a
// one-query RunMulti reproduces Run's makespan, seek count and per-cluster
// local/stolen job counts exactly. The 33/67 and 17/83 cells are left out:
// there Run grants a stealing batch run-length while FairShare asks the pool
// one job at a time, so min-contention scatters a batch across files and
// seeks rise (ROADMAP, "One simulator event loop").
func TestRunEqualsOneQueryMultiWithoutStealing(t *testing.T) {
	for _, app := range Apps {
		for _, env := range []Env{EnvLocal, EnvCloud, Env5050} {
			cfg := Config(app, env, SimOptions{})
			single, err := hybridsim.Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: Run: %v", app, env, err)
			}
			multi, err := hybridsim.RunMulti(hybridsim.MultiConfig{
				Topology: cfg.Topology, Seed: cfg.Seed, RequestBatch: cfg.RequestBatch,
				Queries: []hybridsim.MultiQuery{{
					Name: string(app), App: cfg.App,
					Index: cfg.Index, Placement: cfg.Placement, PoolOpts: cfg.PoolOpts,
				}},
			})
			if err != nil {
				t.Fatalf("%s/%s: RunMulti: %v", app, env, err)
			}
			if single.Total != multi.Total || single.Seeks != multi.Seeks {
				t.Errorf("%s/%s: Run total %v seeks %d, RunMulti total %v seeks %d",
					app, env, single.Total, single.Seeks, multi.Total, multi.Seeks)
			}
			if len(single.Clusters) != len(multi.Clusters) {
				t.Fatalf("%s/%s: %d clusters vs %d", app, env, len(single.Clusters), len(multi.Clusters))
			}
			for i, c := range single.Clusters {
				if c.Jobs != multi.Clusters[i].Jobs {
					t.Errorf("%s/%s cluster %d: Run jobs %+v, RunMulti jobs %+v",
						app, env, i, c.Jobs, multi.Clusters[i].Jobs)
				}
			}
		}
	}
}

package hybridsim

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// chaosConfig combines every feature of the one loop: two queries (the
// first iterative), a burst-side stage replica, an elastic hook that
// launches two burst workers, and a fault plan with leases and checkpoints
// that crashes the first burst worker mid-run.
func chaosConfig(t *testing.T) MultiConfig {
	t.Helper()
	cfg := MultiConfig{Topology: multiTopology(), Seed: 11}
	cfg.Topology.Clusters[1].Jitter = 0.1
	cfg.Topology.Stage = &StageModel{
		Site:         1,
		ServeRate:    400 << 20,
		ServeLatency: 2 * time.Millisecond,
		StagePath:    PathModel{Bandwidth: 50 << 20, Latency: 20 * time.Millisecond},
		StageStreams: 2,
	}
	for i, sp := range []struct {
		name   string
		files  int
		rate   float64
		passes int
	}{
		{"kmeans", 8, 4 << 20, 2},
		{"knn", 6, 16 << 20, 1},
	} {
		cfg.Queries = append(cfg.Queries, MultiQuery{
			Name:       sp.name,
			App:        multiApp(sp.name, sp.rate),
			Index:      multiIndex(t, sp.name, sp.files, 4),
			Placement:  jobs.SplitByFraction(sp.files, 0.5, 0, 1),
			Weight:     i + 1,
			Iterations: sp.passes,
		})
	}
	cfg.Elastic = &ElasticSim{
		Interval: 200 * time.Millisecond,
		Decide: func(now time.Duration, _ []head.QueryLoad, workers []int) ElasticDecision {
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
	cfg.faults = fault.Plan{
		Events:          []fault.Event{{At: 700 * time.Millisecond, Site: 1000, Kind: fault.Crash}},
		CheckpointEvery: 150 * time.Millisecond,
		RestartAfter:    300 * time.Millisecond,
		Tuning:          config.Tuning{LeaseTTL: 200 * time.Millisecond},
	}
	return cfg
}

// TestSimBurstWorkerCrashWithWarmCache: a burst worker crashes mid-run while
// an iterative query re-reads through a warm stage replica next to another
// query. Every query still credits each chunk exactly once per pass, the
// run does not stall, and a replay is byte-identical down to the trace.
func TestSimBurstWorkerCrashWithWarmCache(t *testing.T) {
	run := func() (*MultiResult, []byte) {
		cfg := chaosConfig(t)
		o := obs.New(nil)
		o.Tracer.Enable()
		cfg.Obs = o
		res, err := RunMulti(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := o.Tracer.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	res, trace := run()

	cfg := chaosConfig(t)
	for qi, qr := range res.Queries {
		credits := 0
		for _, acct := range qr.Jobs {
			credits += acct.Total()
		}
		q := cfg.Queries[qi]
		if want := q.Index.NumChunks() * q.Iterations; credits != want {
			t.Errorf("query %s credited %d jobs, want %d chunks × %d passes", qr.Name, credits, q.Index.NumChunks(), q.Iterations)
		}
	}
	if res.Faults.Crashes != 1 || res.Faults.Recoveries != 1 {
		t.Errorf("Faults = %+v, want the burst worker's one crash and one recovery", res.Faults)
	}
	if res.Faults.Requeued+res.Faults.Reissued == 0 {
		t.Error("the crash lost no work — it missed the busy burst worker")
	}
	burst := 0
	for _, c := range res.Clusters {
		if c.Burst {
			burst++
			if c.Jobs.Total() == 0 {
				t.Errorf("burst worker %s ran no jobs", c.Name)
			}
		}
	}
	if burst != 2 {
		t.Errorf("%d burst workers, want 2", burst)
	}
	if st := res.Stage; st == nil || len(st.ByIter) < 2 || st.ByIter[1].Hits == 0 {
		t.Errorf("stage replica served no warm second-pass reads: %+v", res.Stage)
	}

	again, traceAgain := run()
	if !reflect.DeepEqual(res, again) {
		t.Errorf("replay differs:\n%+v\nvs\n%+v", res, again)
	}
	if !bytes.Equal(trace, traceAgain) {
		t.Error("replay trace is not byte-identical")
	}
}

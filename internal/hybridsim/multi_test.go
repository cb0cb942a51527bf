package hybridsim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/jobs"
)

// multiTopology is a 2-cluster hybrid deployment shared by every query.
func multiTopology() Topology {
	return Topology{
		Clusters: []ClusterModel{
			{Name: "local", Site: 0, Cores: 4, RetrievalThreads: 4},
			{Name: "cloud", Site: 1, Cores: 4, RetrievalThreads: 4},
		},
		SourceEgress: map[int]float64{0: 200 << 20, 1: 300 << 20},
		Paths: map[[2]int]PathModel{
			{0, 1}: {Bandwidth: 50 << 20, Latency: 20 * time.Millisecond},
			{1, 0}: {Bandwidth: 50 << 20, Latency: 20 * time.Millisecond},
			{1, 1}: {Bandwidth: 400 << 20, Latency: 2 * time.Millisecond},
		},
		ControlLatency:        5 * time.Millisecond,
		InterClusterBandwidth: 40 << 20,
		InterClusterLatency:   25 * time.Millisecond,
	}
}

func multiIndex(t *testing.T, name string, files, chunksPerFile int) *chunk.Index {
	t.Helper()
	const unit = 1024
	unitsPerChunk := 1024 // 1 MiB chunks
	ix, err := chunk.Layout(name, int64(files*chunksPerFile*unitsPerChunk), unit,
		chunksPerFile*unitsPerChunk, unitsPerChunk)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func multiApp(name string, rate float64) AppModel {
	return AppModel{
		Name:               name,
		ComputeBytesPerSec: rate,
		RobjBytes:          1 << 20,
		MergeBytesPerSec:   1 << 30,
	}
}

// TestMultiAccountingAndDeterminism: three mixed-cost queries over one
// shared deployment — each query's jobs are all processed exactly once with
// isolated accounting, and the whole experiment is replay-deterministic.
func TestMultiAccountingAndDeterminism(t *testing.T) {
	cfg := Config{
		Topology: multiTopology(),
		Seed:     7,
	}
	cfg.Topology.Clusters[1].Jitter = 0.1
	specs := []struct {
		name  string
		files int
		rate  float64
		frac  float64
	}{
		{"histogram", 8, 16 << 20, 0.5},
		{"knn", 6, 8 << 20, 0.33},
		{"kmeans", 4, 4 << 20, 1.0},
	}
	for _, sp := range specs {
		ix := multiIndex(t, sp.name, sp.files, 4)
		cfg.Queries = append(cfg.Queries, Query{
			Name:      sp.name,
			App:       multiApp(sp.name, sp.rate),
			Index:     ix,
			Placement: jobs.SplitByFraction(sp.files, sp.frac, 0, 1),
		})
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for qi, qr := range res.Queries {
		want := cfg.Queries[qi].Index.NumChunks()
		got := 0
		for _, acct := range qr.Jobs {
			got += acct.Total()
		}
		if got != want {
			t.Errorf("query %s processed %d jobs, dataset has %d", qr.Name, got, want)
		}
		if qr.Granted != want {
			t.Errorf("query %s granted %d jobs, want %d", qr.Name, qr.Granted, want)
		}
		if qr.Finish <= 0 || qr.Finish > res.Total {
			t.Errorf("query %s finish %v outside (0, %v]", qr.Name, qr.Finish, res.Total)
		}
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Errorf("same seed produced different results:\n%+v\n%+v", res, again)
	}
}

// TestMultiWeightedShareFinishOrder: two identical CPU-bound queries with
// weights 3:1 — the heavier query drains its pool and finishes well before
// the lighter one, while with equal weights they finish together.
func TestMultiWeightedShareFinishOrder(t *testing.T) {
	topo := Topology{
		Clusters:       []ClusterModel{{Name: "solo", Site: 0, Cores: 2, RetrievalThreads: 4}},
		SourceEgress:   map[int]float64{0: 1 << 30},
		ControlLatency: time.Millisecond,
	}
	mk := func(wHeavy, wLight int) Config {
		cfg := Config{Topology: topo, Seed: 3}
		for i, w := range []int{wHeavy, wLight} {
			name := []string{"heavy", "light"}[i]
			ix := multiIndex(t, name, 6, 4)
			cfg.Queries = append(cfg.Queries, Query{
				Name:      name,
				App:       multiApp(name, 8<<20),
				Index:     ix,
				Placement: jobs.SplitByFraction(6, 1.0, 0, 1),
				Weight:    w,
			})
		}
		return cfg
	}
	weighted, err := Run(mk(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	h, l := weighted.Queries[0].Finish, weighted.Queries[1].Finish
	if h >= l {
		t.Errorf("weight-3 query finished at %v, not before weight-1 at %v", h, l)
	}
	if ratio := float64(h) / float64(l); ratio > 0.85 {
		t.Errorf("weight-3/weight-1 finish ratio %.2f, want clear separation (< 0.85)", ratio)
	}
	equal, err := Run(mk(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	eh, el := equal.Queries[0].Finish, equal.Queries[1].Finish
	lo, hi := float64(eh), float64(el)
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo/hi < 0.9 {
		t.Errorf("equal-weight queries finished at %v and %v, want within 10%%", eh, el)
	}
}

// TestMultiRejectsEmptyAndBadConfigs exercises the validation path.
func TestMultiRejectsEmptyAndBadConfigs(t *testing.T) {
	if _, err := Run(Config{Topology: multiTopology()}); err == nil {
		t.Error("no queries: want error")
	}
	ix := multiIndex(t, "bad", 2, 2)
	q := Query{Name: "bad", Index: ix, Placement: jobs.SplitByFraction(2, 1, 0, 1)}
	if _, err := Run(Config{Queries: []Query{q}, Topology: multiTopology()}); err == nil {
		t.Error("zero compute rate: want error")
	}
	q.App = multiApp("bad", 1<<20)
	if _, err := Run(Config{Queries: []Query{q}}); err == nil {
		t.Error("no clusters: want error")
	}
}

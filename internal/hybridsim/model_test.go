package hybridsim

import (
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/jobs"
	"repro/internal/simtime"
)

// Additional model-fidelity tests: per-stream caps, seek penalties, and the
// head-cluster reduction-object waiver.

func TestNetworkPerStreamCap(t *testing.T) {
	clock := &simtime.Clock{}
	net := NewNetwork(clock)
	r := &Resource{Capacity: 10_000}
	var done time.Duration
	// Alone on a 10 kB/s link but capped at 1 kB/s per stream.
	net.Start(2000, 0, 1000, []*Resource{r}, func() { done = clock.Now() })
	clock.Run()
	if done != 2*time.Second {
		t.Errorf("capped transfer finished at %v, want 2s", done)
	}
}

func TestNetworkPerStreamAggregateScales(t *testing.T) {
	clock := &simtime.Clock{}
	net := NewNetwork(clock)
	r := &Resource{Capacity: 10_000}
	finish := make([]time.Duration, 4)
	for i := 0; i < 4; i++ {
		i := i
		net.Start(1000, 0, 1000, []*Resource{r}, func() { finish[i] = clock.Now() })
	}
	clock.Run()
	// 4 streams × 1 kB/s, resource not binding (10 kB/s): all done at 1 s.
	for i, f := range finish {
		if f != time.Second {
			t.Errorf("stream %d finished at %v, want 1s", i, f)
		}
	}
}

func TestNetworkPerStreamThenShared(t *testing.T) {
	clock := &simtime.Clock{}
	net := NewNetwork(clock)
	r := &Resource{Capacity: 2000}
	finish := make([]time.Duration, 4)
	for i := 0; i < 4; i++ {
		i := i
		// 4 streams capped at 1 kB/s each but the shared link is 2 kB/s:
		// each runs at 500 B/s.
		net.Start(1000, 0, 1000, []*Resource{r}, func() { finish[i] = clock.Now() })
	}
	clock.Run()
	for i, f := range finish {
		if f != 2*time.Second {
			t.Errorf("stream %d finished at %v, want 2s", i, f)
		}
	}
}

// seekConfig builds a single-cluster config with a seek penalty at site 0.
func seekConfig(t *testing.T, scatter bool) Config {
	cfg := testConfig(t, 8, 4, 1.0)
	cfg.Topology.Clusters = cfg.Topology.Clusters[:1]
	cfg.Topology.SeekPenalty = map[int]time.Duration{0: 50 * time.Millisecond}
	cfg.Queries[0].PoolOpts = jobs.Options{ScatterGroups: scatter}
	return cfg
}

func TestSeekPenaltyCountsSwitches(t *testing.T) {
	seq, err := Run(seekConfig(t, false))
	if err != nil {
		t.Fatal(err)
	}
	scat, err := Run(seekConfig(t, true))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Seeks >= scat.Seeks {
		t.Errorf("consecutive seeks (%d) not below scattered (%d)", seq.Seeks, scat.Seeks)
	}
	// Scattered assignment touches a new file on almost every fetch.
	if scat.Seeks < 24 {
		t.Errorf("scattered seeks = %d, expected most of 32 fetches", scat.Seeks)
	}
	if scat.Total <= seq.Total {
		t.Errorf("scattered (%v) not slower than consecutive (%v)", scat.Total, seq.Total)
	}
}

func TestHeadClusterSkipsRobjTransfer(t *testing.T) {
	base := testConfig(t, 8, 4, 0.5)
	base.Queries[0].App.RobjBytes = 512 << 20
	base.Topology.InterClusterBandwidth = 10 << 20 // 51.2s per transfer

	// Head co-located with cluster 0: only cluster 1 pays.
	withHead0 := base
	withHead0.Topology.HeadCluster = 0
	a, err := Run(withHead0)
	if err != nil {
		t.Fatal(err)
	}

	// No co-location benefit for anyone: point HeadCluster at an index that
	// matches no cluster, so both transfers cross the WAN.
	withNone := base
	withNone.Topology.HeadCluster = -1
	b, err := Run(withNone)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total >= b.Total {
		t.Errorf("head co-location did not help: %v vs %v", a.Total, b.Total)
	}
	// With serial merging of two 51.2s transfers vs one, the gap should be
	// large.
	if b.Total-a.Total < 20*time.Second {
		t.Errorf("gap = %v, expected tens of seconds", b.Total-a.Total)
	}
}

func TestJitterChangesTimingNotWork(t *testing.T) {
	quiet := testConfig(t, 8, 4, 0.5)
	noisy := testConfig(t, 8, 4, 0.5)
	noisy.Topology.Clusters[0].Jitter = 0.2
	noisy.Topology.Clusters[1].Jitter = 0.2
	// Make it compute-bound so jitter matters.
	quiet.Queries[0].App.ComputeBytesPerSec = 1 << 20
	noisy.Queries[0].App.ComputeBytesPerSec = 1 << 20
	a, err := Run(quiet)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total == b.Total {
		t.Error("jitter had no effect on a compute-bound run")
	}
	// Work conservation holds regardless.
	ja, jb := 0, 0
	for i := range a.Clusters {
		ja += a.Clusters[i].Jobs.Total()
		jb += b.Clusters[i].Jobs.Total()
	}
	if ja != jb {
		t.Errorf("job counts diverged: %d vs %d", ja, jb)
	}
}

func TestControlLatencySlowsSmallRuns(t *testing.T) {
	fast := testConfig(t, 4, 2, 0.5)
	slow := testConfig(t, 4, 2, 0.5)
	slow.Topology.ControlLatency = 500 * time.Millisecond
	a, err := Run(fast)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	if b.Total <= a.Total {
		t.Errorf("500ms control RTT did not slow the run: %v vs %v", b.Total, a.Total)
	}
}

func TestQueueDepthBackpressure(t *testing.T) {
	// With a tiny queue depth and slow compute, retrieval must stall rather
	// than buffer the whole dataset.
	cfg := testConfig(t, 8, 4, 1.0)
	cfg.Topology.Clusters = cfg.Topology.Clusters[:1]
	cfg.Topology.Clusters[0].QueueDepth = 1
	cfg.Queries[0].App.ComputeBytesPerSec = 1 << 20
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// All jobs still processed exactly once.
	if res.Clusters[0].Jobs.Total() != cfg.Queries[0].Index.NumChunks() {
		t.Errorf("processed %d, want %d", res.Clusters[0].Jobs.Total(), cfg.Queries[0].Index.NumChunks())
	}
}

// TestThreeClustersMultiCloud exercises the paper's §II claim that the
// design "will also be applicable if the data and/or processing power is
// spread across two different cloud providers": one local cluster plus two
// cloud clusters, three storage sites.
func TestThreeClustersMultiCloud(t *testing.T) {
	const unit = 1024
	unitsPerChunk := 1024
	files := 12
	ix, err := chunk.Layout("mc", int64(files*4*unitsPerChunk), unit, 4*unitsPerChunk, unitsPerChunk)
	if err != nil {
		t.Fatal(err)
	}
	// Files 0-3 on site 0, 4-7 on site 1, 8-11 on site 2.
	placement := make(jobs.Placement, files)
	for i := range placement {
		placement[i] = i / 4
	}
	cfg := Config{
		Queries: []Query{{
			Name:      "mc",
			Index:     ix,
			Placement: placement,
			App: AppModel{
				Name:               "mc",
				ComputeBytesPerSec: 8 << 20,
				RobjBytes:          1 << 20,
				MergeBytesPerSec:   1 << 30,
			},
		}},
		Topology: Topology{
			Clusters: []ClusterModel{
				{Name: "local", Site: 0, Cores: 4, RetrievalThreads: 4},
				{Name: "cloudA", Site: 1, Cores: 4, RetrievalThreads: 4},
				{Name: "cloudB", Site: 2, Cores: 2, RetrievalThreads: 2},
			},
			SourceEgress: map[int]float64{0: 200 << 20, 1: 300 << 20, 2: 300 << 20},
			Paths: map[[2]int]PathModel{
				{0, 1}: {Bandwidth: 30 << 20, Latency: 20 * time.Millisecond},
				{0, 2}: {Bandwidth: 30 << 20, Latency: 30 * time.Millisecond},
				{1, 0}: {Bandwidth: 30 << 20, Latency: 20 * time.Millisecond},
				{1, 2}: {Bandwidth: 50 << 20, Latency: 10 * time.Millisecond},
				{2, 0}: {Bandwidth: 30 << 20, Latency: 30 * time.Millisecond},
				{2, 1}: {Bandwidth: 50 << 20, Latency: 10 * time.Millisecond},
			},
			ControlLatency:        5 * time.Millisecond,
			InterClusterBandwidth: 40 << 20,
			InterClusterLatency:   25 * time.Millisecond,
			HeadCluster:           0,
		},
		Seed: 3,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 3 {
		t.Fatalf("clusters = %d", len(res.Clusters))
	}
	total := 0
	var bytes int64
	for _, c := range res.Clusters {
		total += c.Jobs.Total()
		for _, n := range c.BytesBySite {
			bytes += n
		}
	}
	if total != ix.NumChunks() {
		t.Errorf("processed %d jobs, want %d", total, ix.NumChunks())
	}
	if bytes != ix.TotalBytes() {
		t.Errorf("retrieved %d bytes, want %d", bytes, ix.TotalBytes())
	}
	// The slower third cluster still contributes (pooling balances).
	if res.Clusters[2].Jobs.Total() == 0 {
		t.Error("cloudB processed nothing")
	}
	for _, c := range res.Clusters {
		if c.Breakdown.Total() != res.Total {
			t.Errorf("%s breakdown %v != total %v", c.Name, c.Breakdown.Total(), res.Total)
		}
	}
}

package hybridsim

import (
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/jobs"
	"repro/internal/simtime"
)

// ------------------------------------------------------------- network

func TestNetworkSingleTransfer(t *testing.T) {
	clock := &simtime.Clock{}
	net := NewNetwork(clock)
	r := &Resource{Capacity: 1000} // 1000 B/s
	var done time.Duration
	net.Start(2000, 0, 0, []*Resource{r}, func() { done = clock.Now() })
	clock.Run()
	if want := 2 * time.Second; done != want {
		t.Errorf("transfer finished at %v, want %v", done, want)
	}
}

func TestNetworkFairSharing(t *testing.T) {
	clock := &simtime.Clock{}
	net := NewNetwork(clock)
	r := &Resource{Capacity: 1000}
	var t1, t2 time.Duration
	// Two equal transfers share the link: each runs at 500 B/s until the
	// first finishes; with equal sizes both finish at 2×(size/capacity)… of
	// the pair: 1000B+1000B over 1000B/s = 2s total, both at 2s.
	net.Start(1000, 0, 0, []*Resource{r}, func() { t1 = clock.Now() })
	net.Start(1000, 0, 0, []*Resource{r}, func() { t2 = clock.Now() })
	clock.Run()
	if t1 != 2*time.Second || t2 != 2*time.Second {
		t.Errorf("finish times %v %v, want 2s each", t1, t2)
	}
}

func TestNetworkRateRecomputation(t *testing.T) {
	clock := &simtime.Clock{}
	net := NewNetwork(clock)
	r := &Resource{Capacity: 1000}
	var small, big time.Duration
	// Small transfer (500 B) and big transfer (1500 B) start together.
	// Phase 1: both at 500 B/s; small done at 1 s (500 B each consumed).
	// Phase 2: big alone at 1000 B/s with 1000 B left → done at 2 s.
	net.Start(500, 0, 0, []*Resource{r}, func() { small = clock.Now() })
	net.Start(1500, 0, 0, []*Resource{r}, func() { big = clock.Now() })
	clock.Run()
	if small != time.Second {
		t.Errorf("small finished at %v, want 1s", small)
	}
	if big != 2*time.Second {
		t.Errorf("big finished at %v, want 2s", big)
	}
}

func TestNetworkMultiResourceBottleneck(t *testing.T) {
	clock := &simtime.Clock{}
	net := NewNetwork(clock)
	fast := &Resource{Capacity: 10000}
	slow := &Resource{Capacity: 100}
	var done time.Duration
	net.Start(200, 0, 0, []*Resource{fast, slow}, func() { done = clock.Now() })
	clock.Run()
	if done != 2*time.Second {
		t.Errorf("bottlenecked transfer finished at %v, want 2s", done)
	}
}

func TestNetworkLatency(t *testing.T) {
	clock := &simtime.Clock{}
	net := NewNetwork(clock)
	r := &Resource{Capacity: 1000}
	var done time.Duration
	net.Start(1000, 500*time.Millisecond, 0, []*Resource{r}, func() { done = clock.Now() })
	clock.Run()
	if done != 1500*time.Millisecond {
		t.Errorf("finished at %v, want 1.5s", done)
	}
}

func TestNetworkUnlimitedPath(t *testing.T) {
	clock := &simtime.Clock{}
	net := NewNetwork(clock)
	var done bool
	net.Start(1<<30, 0, 0, nil, func() { done = true })
	clock.Run()
	if !done {
		t.Error("unconstrained transfer never finished")
	}
	if clock.Now() > time.Millisecond*100 {
		t.Errorf("unconstrained transfer took %v", clock.Now())
	}
}

func TestNetworkZeroBytes(t *testing.T) {
	clock := &simtime.Clock{}
	net := NewNetwork(clock)
	done := false
	net.Start(0, 0, 0, nil, func() { done = true })
	if !done {
		t.Error("zero-byte transfer did not complete synchronously")
	}
}

func TestNetworkChainedTransfers(t *testing.T) {
	clock := &simtime.Clock{}
	net := NewNetwork(clock)
	r := &Resource{Capacity: 1000}
	var finish time.Duration
	// done callback starts the next transfer (as retrieval threads do).
	net.Start(1000, 0, 0, []*Resource{r}, func() {
		net.Start(1000, 0, 0, []*Resource{r}, func() { finish = clock.Now() })
	})
	clock.Run()
	if finish != 2*time.Second {
		t.Errorf("chain finished at %v, want 2s", finish)
	}
	if net.InFlight() != 0 {
		t.Errorf("InFlight = %d", net.InFlight())
	}
}

// ------------------------------------------------------------- simulation

// testConfig builds a 2-cluster hybrid setup over a dataset of nChunks
// chunks of 1 MB each.
func testConfig(t *testing.T, files, chunksPerFile int, localFrac float64) Config {
	t.Helper()
	const unit = 1024
	unitsPerChunk := 1024 // 1 MiB chunks
	ix, err := chunk.Layout("sim", int64(files*chunksPerFile*unitsPerChunk), unit, chunksPerFile*unitsPerChunk, unitsPerChunk)
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Files) != files {
		t.Fatalf("layout built %d files, want %d", len(ix.Files), files)
	}
	return Config{
		Queries: []Query{{
			Name:      "synthetic",
			Index:     ix,
			Placement: jobs.SplitByFraction(files, localFrac, 0, 1),
			App: AppModel{
				Name:               "synthetic",
				ComputeBytesPerSec: 8 << 20, // 8 MiB/s per core
				RobjBytes:          1 << 20,
				MergeBytesPerSec:   1 << 30,
			},
		}},
		Topology: Topology{
			Clusters: []ClusterModel{
				{Name: "local", Site: 0, Cores: 4, RetrievalThreads: 4},
				{Name: "cloud", Site: 1, Cores: 4, RetrievalThreads: 4},
			},
			SourceEgress: map[int]float64{
				0: 200 << 20, // storage node disk
				1: 300 << 20, // object store egress
			},
			Paths: map[[2]int]PathModel{
				{0, 1}: {Bandwidth: 50 << 20, Latency: 20 * time.Millisecond}, // local ← S3 (WAN)
				{1, 0}: {Bandwidth: 50 << 20, Latency: 20 * time.Millisecond}, // cloud ← local storage (WAN)
				{1, 1}: {Bandwidth: 400 << 20, Latency: 2 * time.Millisecond}, // cloud ← S3
			},
			ControlLatency:        5 * time.Millisecond,
			InterClusterBandwidth: 40 << 20,
			InterClusterLatency:   25 * time.Millisecond,
		},
		Seed: 1,
	}
}

// tableII is Table II's split of a one-query run's tail: idle is how long
// the earliest-finishing cluster waited for the last one, and globalRed the
// tail after the last cluster's final fold.
func tableII(res *Result) (idle, globalRed time.Duration) {
	first, last := res.Total, time.Duration(0)
	for _, done := range res.Queries[0].LocalDone {
		first, last = min(first, done), max(last, done)
	}
	return last - first, res.Total - last
}

func TestSimProcessesEveryJobExactlyOnce(t *testing.T) {
	cfg := testConfig(t, 8, 4, 0.5)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range res.Clusters {
		total += c.Jobs.Total()
	}
	if total != cfg.Queries[0].Index.NumChunks() {
		t.Errorf("processed %d jobs, dataset has %d", total, cfg.Queries[0].Index.NumChunks())
	}
	var bytes int64
	for _, c := range res.Clusters {
		for _, n := range c.BytesBySite {
			bytes += n
		}
	}
	if bytes != cfg.Queries[0].Index.TotalBytes() {
		t.Errorf("retrieved %d bytes, dataset is %d", bytes, cfg.Queries[0].Index.TotalBytes())
	}
	if res.Total <= 0 {
		t.Errorf("Total = %v", res.Total)
	}
}

func TestSimDeterminism(t *testing.T) {
	cfg := testConfig(t, 8, 4, 0.33)
	cfg.Topology.Clusters[1].Jitter = 0.1
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aIdle, aGR := tableII(a)
	bIdle, bGR := tableII(b)
	if a.Total != b.Total || aIdle != bIdle || aGR != bGR {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
	for i := range a.Clusters {
		if a.Clusters[i].Breakdown != b.Clusters[i].Breakdown || a.Clusters[i].Jobs != b.Clusters[i].Jobs {
			t.Errorf("cluster %d differs: %+v vs %+v", i, a.Clusters[i], b.Clusters[i])
		}
	}
}

func TestSimBreakdownSumsToTotal(t *testing.T) {
	cfg := testConfig(t, 8, 4, 0.5)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Clusters {
		if got := c.Breakdown.Total(); got != res.Total {
			t.Errorf("cluster %s breakdown %v != makespan %v", c.Name, got, res.Total)
		}
	}
}

func TestSimSkewIncreasesRuntime(t *testing.T) {
	// Pushing more data behind the WAN must not make the run faster.
	var prev time.Duration
	for i, frac := range []float64{0.5, 0.25, 0.125} {
		cfg := testConfig(t, 16, 4, frac)
		// Make it I/O-bound so retrieval dominates.
		cfg.Queries[0].App.ComputeBytesPerSec = 400 << 20
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.Total < prev {
			t.Errorf("frac=%v total %v faster than previous %v", frac, res.Total, prev)
		}
		prev = res.Total
	}
}

func TestSimMoreCoresFaster(t *testing.T) {
	// Compute-bound run must speed up when cores double.
	slow := testConfig(t, 8, 4, 0.5)
	slow.Queries[0].App.ComputeBytesPerSec = 1 << 20
	fast := testConfig(t, 8, 4, 0.5)
	fast.Queries[0].App.ComputeBytesPerSec = 1 << 20
	fast.Topology.Clusters[0].Cores = 8
	fast.Topology.Clusters[1].Cores = 8
	a, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fast)
	if err != nil {
		t.Fatal(err)
	}
	if b.Total >= a.Total {
		t.Errorf("8-core run %v not faster than 4-core %v", b.Total, a.Total)
	}
	speedup := float64(a.Total) / float64(b.Total)
	if speedup < 1.5 {
		t.Errorf("compute-bound doubling speedup %.2f, want ≥1.5", speedup)
	}
}

func TestSimStealingOccursUnderSkew(t *testing.T) {
	cfg := testConfig(t, 16, 4, 0.125) // almost everything remote to site 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stolen := 0
	for _, c := range res.Clusters {
		stolen += c.Jobs.Stolen
	}
	if stolen == 0 {
		t.Error("no stealing despite 12.5/87.5 placement")
	}
}

func TestSimSingleCluster(t *testing.T) {
	cfg := testConfig(t, 4, 4, 1.0)
	cfg.Topology.Clusters = cfg.Topology.Clusters[:1]
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if idle, _ := tableII(res); idle != 0 {
		t.Errorf("single cluster idle time = %v", idle)
	}
	if res.Clusters[0].Jobs.Stolen != 0 {
		t.Errorf("single cluster stole %d jobs", res.Clusters[0].Jobs.Stolen)
	}
}

func TestSimLargerRobjMoreSync(t *testing.T) {
	small := testConfig(t, 8, 4, 0.5)
	big := testConfig(t, 8, 4, 0.5)
	big.Queries[0].App.RobjBytes = 512 << 20 // pagerank-style object
	a, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(big)
	if err != nil {
		t.Fatal(err)
	}
	_, aGR := tableII(a)
	_, bGR := tableII(b)
	if bGR <= aGR {
		t.Errorf("512MB robj global reduction %v not longer than 1MB %v", bGR, aGR)
	}
}

func TestSimValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := testConfig(t, 4, 4, 0.5)
	cfg.Queries[0].App.ComputeBytesPerSec = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero compute rate accepted")
	}
	cfg = testConfig(t, 4, 4, 0.5)
	cfg.Topology.Clusters[0].Cores = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero-core cluster accepted")
	}
	cfg = testConfig(t, 4, 4, 0.5)
	cfg.Queries[0].Placement = jobs.Placement{0}
	if _, err := Run(cfg); err == nil {
		t.Error("short placement accepted")
	}
}

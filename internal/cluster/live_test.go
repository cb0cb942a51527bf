package cluster

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/jobs"
	"repro/internal/netem"
	"repro/internal/objstore"
)

// TestLiveShapedRetrieval runs the real middleware against an object store
// behind an emulated WAN and checks that the measured decomposition
// reflects it: remote bytes are accounted against the "s3" label and the
// retrieval component is substantial relative to an unshaped local run.
func TestLiveShapedRetrieval(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive live test")
	}
	// ~4 MiB dataset, all hosted behind a 4 MiB/s + 30 ms WAN.
	ix, src, want := buildDataset(t, 1<<20, 1<<18, 1<<15) // 4 MiB of uint32 units
	shaper := netem.NewShaper(netem.Link{BytesPerSec: 4 << 20, Latency: 30 * time.Millisecond})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	store := objstore.NewServer(objstore.NewMemBackend())
	store.Logf = nil
	go store.Serve(netem.Listener{Listener: l, Shaper: shaper})
	defer store.Close()
	osc := objstore.Dial("tcp", l.Addr().String(), 8)
	defer osc.Close()
	if err := objstore.Upload(osc, ix, src, ""); err != nil {
		t.Fatal(err)
	}

	// Everything in "S3" (site 1); single cluster at site 0 must pull it
	// all across the shaped link.
	h, q := newHead(t, ix, jobs.SplitByFraction(len(ix.Files), 0, 0, 1), 1)
	var s3Bytes atomic.Int64
	start := time.Now()
	s := runAgents(t, h, q, AgentConfig{
		Site: 0, Name: "burster", Cores: 2, RetrievalThreads: 4,
		Sources: map[int]chunk.Source{
			1: countingSource{&objstore.Source{Client: osc, Index: ix, Threads: 2}, &s3Bytes},
		},
		SourceLabels: map[int]string{1: "s3"},
	})
	elapsed := time.Since(start)
	if got := s.sum(t); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
	if got := s3Bytes.Load(); got != ix.TotalBytes() {
		t.Errorf("s3 bytes = %d, want %d", got, ix.TotalBytes())
	}
	rep := s.reports[0]
	if rep.Jobs.Stolen != ix.NumChunks() {
		t.Errorf("stolen = %d, want all %d (no local data)", rep.Jobs.Stolen, ix.NumChunks())
	}
	// 4 MiB over a 4 MiB/s link: the wall time must reflect the shaping
	// (≥0.5 s even with burst allowance), and the measured retrieval
	// component must dominate processing for this trivial reducer.
	if elapsed < 500*time.Millisecond {
		t.Errorf("run took %v; the WAN shaping had no effect", elapsed)
	}
	if rep.Breakdown.Retrieval <= rep.Breakdown.Processing {
		t.Errorf("retrieval (%v) should dominate processing (%v) across a shaped WAN",
			rep.Breakdown.Retrieval, rep.Breakdown.Processing)
	}
}

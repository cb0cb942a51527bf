package main

import (
	"time"

	"repro/internal/netem"
)

const (
	kib = 1 << 10
	mib = 1 << 20

	pointDim = 8 // every point dataset: 8 float32 coordinates, 32-byte units

	// Load sizing for a 2-core box: two processing threads in total (two
	// clusters of one core, or one cluster of two), two retrieval threads per
	// cluster and two pooled connections per object-store client.
	retrievalThreads = 2
	storeConns       = 2
)

// Links of the emulated deployment. A zero Link is an unshaped loopback
// socket.
var (
	nearLink  = netem.Link{BytesPerSec: 200 * mib, Latency: 200 * time.Microsecond}
	crossLink = netem.Link{BytesPerSec: 24 * mib, Latency: 20 * time.Millisecond} // one bucket shared by both directions
	burstLink = netem.Link{BytesPerSec: 32 * mib, Latency: 20 * time.Millisecond}
	// headLink is per master and per direction, and bandwidth only: netem
	// charges latency once per write burst, so with a 40 ms latency every
	// commit paid 80 ms once the link had been idle for 40 ms and none did
	// while commits kept it busy — round times were bimodal (1.3 s or 2–3 s).
	headLink = netem.Link{BytesPerSec: 16 * mib}
)

type clusterDef struct {
	Site  int
	Cores int
}

type queryDef struct {
	App    string
	Weight int
}

// workloadDef is one named benchmark workload: a dataset, where it lives,
// who processes it over which links, and what one rep is.
type workloadDef struct {
	Name string
	Why  string

	Dataset    string // "uniform", "clustered" or "graph"
	Bytes      int64  // dataset size at full scale
	ChunkBytes int    // 0 = 1 MiB (64 KiB at tiny scale)
	LocalShare float64
	Clusters   []clusterDef
	Queries    []queryDef // admitted together; one rep waits for all of them

	Near, Cross netem.Link // own-site and cross-site object-store links
	Head        netem.Link // master↔head link; zero = plain loopback
	Mem         bool       // serve chunks straight from chunk.MemSource
	CacheShare  float64    // > 0: stagecache with this share of the dataset as memory tier
	Passes      int        // queries run back to back per rep (0 = 1)
}

const files = 16 // every dataset is cut into 16 files

var workloads = []workloadDef{
	{
		Name:       "knn-lan",
		Why:        "128 MiB knn over unshaped loopback: every byte crosses range-GET, frame, pooled buffer, CRC and fold, so data-plane CPU sets the makespan",
		Dataset:    "uniform",
		Bytes:      128 * mib,
		LocalShare: 0.5,
		Clusters:   []clusterDef{{0, 1}, {1, 1}},
		Queries:    []queryDef{{appKNN, 1}},
	},
	{
		Name:       "knn-wan-skew",
		Why:        "same data placed 3/16 local behind a shared 24 MiB/s WAN: stealing, prefetch and retrieval overlap set the makespan, data-plane CPU must not",
		Dataset:    "uniform",
		Bytes:      128 * mib,
		LocalShare: 1.0 / 6,
		Clusters:   []clusterDef{{0, 1}, {1, 1}},
		Queries:    []queryDef{{appKNN, 1}},
		Near:       nearLink,
		Cross:      crossLink,
	},
	{
		Name:       "knn-burst-iter",
		Why:        "one cloud cluster re-reads a remote 32 MiB dataset three times through a fresh half-sized stagecache: cache hits, replica PUTs and LRU under a scan larger than memory",
		Dataset:    "uniform",
		Bytes:      32 * mib,
		LocalShare: 1,
		Clusters:   []clusterDef{{1, 2}},
		Queries:    []queryDef{{appKNN, 1}},
		Near:       nearLink,
		Cross:      burstLink,
		CacheShare: 0.5,
		Passes:     3,
	},
	{
		Name:       "kmeans-compute",
		Why:        "kmeans K=32 Lloyd rounds over the WAN topology: the fold dominates and prefetch hides retrieval, so engine and kernel changes move it and data-plane changes should not",
		Dataset:    "clustered",
		Bytes:      128 * mib,
		LocalShare: 0.5,
		Clusters:   []clusterDef{{0, 1}, {1, 1}},
		Queries:    []queryDef{{appKMeans, 1}},
		Near:       nearLink,
		Cross:      crossLink,
	},
	{
		Name:       "pagerank-sync",
		Why:        "pagerank power iterations with an 8 MB reduction object and 8 MB of ranks per spec over a 16 MiB/s head link: encode, frame, decode and global reduction are the critical path",
		Dataset:    "graph",
		Bytes:      32 * mib,
		LocalShare: 0.5,
		Clusters:   []clusterDef{{0, 1}, {1, 1}},
		Queries:    []queryDef{{appPageRank, 1}},
		Head:       headLink,
	},
	{
		Name:       "multiquery-control",
		Why:        "three concurrent queries over 8192 4-KiB in-memory jobs each: head Poll, JobsDone, fair share and protocol encode/decode set jobs/s",
		Dataset:    "uniform",
		Bytes:      32 * mib,
		ChunkBytes: 4 * kib,
		LocalShare: 0.5,
		Clusters:   []clusterDef{{0, 1}, {1, 1}},
		Queries:    []queryDef{{appKNN, 2}, {appHistogram, 1}, {appHistogram, 1}},
		Mem:        true,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sizing scales a workload: full is what BENCHMARK.json measures, tiny keeps
// the same topology on 1/64 of the data so `go test` can run all six.
type sizing struct {
	tiny bool
}

func (s sizing) bytes(w *workloadDef) int64 {
	if s.tiny {
		return w.Bytes / 64
	}
	return w.Bytes
}

func (s sizing) chunkBytes(w *workloadDef) int {
	switch {
	case w.ChunkBytes > 0:
		return w.ChunkBytes
	case s.tiny:
		return 64 * kib
	}
	return mib
}

// graphNodes sizes the pagerank graph: 1 M nodes make the 8 MB object.
func (s sizing) graphNodes() int {
	if s.tiny {
		return 16 << 10
	}
	return 1 << 20
}

// link shortens latencies at tiny scale, where a rep is a handful of chunks.
func (s sizing) link(l netem.Link) netem.Link {
	if s.tiny && l.Latency > time.Millisecond {
		l.Latency = time.Millisecond
	}
	return l
}

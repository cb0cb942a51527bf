package hybridsim

import "time"

// AppModel captures an application's cost shape — the only thing the
// simulator needs to know about knn, kmeans or pagerank.
type AppModel struct {
	Name string
	// ComputeBytesPerSec is one reference core's processing throughput for
	// this application (how compute-bound it is).
	ComputeBytesPerSec float64
	// RobjBytes is the size of the cluster-level reduction object that must
	// cross the inter-cluster link during global reduction.
	RobjBytes int64
	// MergeBytesPerSec is the head node's rate for merging two reduction
	// objects (dominates global reduction for large objects).
	MergeBytesPerSec float64
}

// mergeTime is how long one merge of the app's reduction object takes.
func (a AppModel) mergeTime() time.Duration {
	if a.MergeBytesPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(a.RobjBytes) / a.MergeBytesPerSec * float64(time.Second))
}

// ClusterModel describes one compute cluster.
type ClusterModel struct {
	Name string
	// Site is the storage site co-located with this cluster.
	Site int
	// Cores is the number of processing threads.
	Cores int
	// CoreSpeed scales ComputeBytesPerSec (cloud instances vs. local Xeons).
	CoreSpeed float64
	// RetrievalThreads is the number of concurrent chunk fetches.
	RetrievalThreads int
	// Jitter is the ± fractional per-job compute-speed variation
	// (virtualization noise on EC2; near zero on dedicated hardware).
	Jitter float64
	// QueueDepth bounds retrieved-but-unprocessed chunks (slave memory).
	// Defaults to 2×Cores.
	QueueDepth int
}

// PathModel is the network path from a cluster to a storage site.
type PathModel struct {
	// Bandwidth is the shared capacity of the whole path (a WAN pipe);
	// ≤0 means unlimited.
	Bandwidth float64
	// PerStream caps a single retrieval connection's rate (one S3 GET, one
	// socket); aggregate path throughput therefore scales with the number
	// of retrieval threads until Bandwidth or the source egress binds.
	PerStream float64
	// Latency is the one-way delay charged at the start of each fetch.
	Latency time.Duration
}

// Topology wires clusters to storage sites.
type Topology struct {
	Clusters []ClusterModel
	// SourceEgress is each storage site's total service capacity
	// (the storage node's disk, the object store's aggregate egress).
	SourceEgress map[int]float64
	// SeekPenalty is the extra per-fetch delay a site charges when a chunk
	// is NOT the sequential successor of the previous chunk fetched from
	// the same file (disk seeks; cold random GETs). This is what the
	// consecutive-job assignment and the min-contention stealing heuristic
	// exist to avoid: interleaved readers break sequentiality.
	SeekPenalty map[int]time.Duration
	// Paths gives the network path from cluster index c to storage site s.
	// Missing entries mean an unconstrained path (co-located).
	Paths map[[2]int]PathModel
	// ControlLatency is the one-way head↔master message delay.
	ControlLatency time.Duration
	// InterClusterBandwidth carries reduction objects to the head during
	// global reduction; ≤0 means unlimited.
	InterClusterBandwidth float64
	// InterClusterLatency is the one-way delay for that exchange.
	InterClusterLatency time.Duration
	// HeadCluster is the index of the cluster co-located with the head
	// node; that cluster's reduction object does not cross the
	// inter-cluster link (the paper runs the head inside the local
	// cluster, so only the cloud pays the WAN exchange).
	HeadCluster int
	// Stage, when non-nil, adds a burst-side partition replica (pre-staging
	// cache) at Stage.Site.
	Stage *StageModel
}

// splitmix64 is the deterministic jitter stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

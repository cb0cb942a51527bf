package hybridsim

import (
	"time"

	"repro/internal/chunk"
	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/stats"
)

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
	// cache) at Stage.Site; Run and RunMulti both model it.
	Stage *StageModel
}

// Config is a full simulated single-query experiment.
type Config struct {
	Index     *chunk.Index
	Placement jobs.Placement
	PoolOpts  jobs.Options
	App       AppModel
	Topology  Topology
	// Seed drives the deterministic jitter stream.
	Seed uint64
	// Faults is the deterministic fault-injection schedule plus the recovery
	// machinery it enables (checkpointing, leases, speculation), driven on
	// the virtual clock. The zero plan injects nothing. Runs with the same
	// plan and seed are byte-identical.
	Faults fault.Plan
	// Obs, when non-nil, receives the run's metrics and — if its tracer is
	// enabled — the full per-job event trace on VIRTUAL time (pid 0 is the
	// head, pid i+1 is cluster i). Instrumentation never alters the
	// simulated schedule: a traced run and an untraced run with the same
	// seed produce identical Results.
	Obs *obs.Obs
}

// Multi maps cfg onto the one-query MultiConfig that Run executes, fault
// plan included.
func (cfg Config) Multi() MultiConfig {
	return MultiConfig{
		Queries: []MultiQuery{{Name: cfg.App.Name, App: cfg.App, Index: cfg.Index,
			Placement: cfg.Placement, PoolOpts: cfg.PoolOpts}},
		Topology: cfg.Topology, Seed: cfg.Seed, Obs: cfg.Obs,
		faults: cfg.Faults,
	}
}

// ClusterResult reports one cluster's simulated run.
type ClusterResult struct {
	Name      string
	Site      int
	Cores     int
	Breakdown stats.Breakdown
	Jobs      stats.JobAccounting
	// BytesBySite counts retrieved bytes per source site.
	BytesBySite map[int]int64
	// RetrievalBusy is the total time retrieval threads spent transferring
	// (diagnostic; the Breakdown's Retrieval is the non-overlapped stall).
	RetrievalBusy time.Duration
	// LocalDone is when the cluster finished its last fold.
	LocalDone time.Duration
}

// Result reports the whole experiment.
type Result struct {
	// Total is the virtual makespan: until the head finishes the final
	// global reduction.
	Total time.Duration
	// Clusters holds per-cluster results in Topology order.
	Clusters []ClusterResult
	// GlobalReduction is the tail after the LAST cluster finished
	// processing: final reduction-object transfer + merge (Table II).
	GlobalReduction time.Duration
	// IdleTime is how long the earliest-finishing cluster waited for the
	// last one (Table II's idle column).
	IdleTime time.Duration
	// Seeks counts non-sequential fetches (file switches or sequence
	// breaks) across all sites — the contention the consecutive-job and
	// min-contention policies minimize.
	Seeks int
	// Faults summarizes fault-plan activity (zero when no plan was active).
	Faults FaultStats
}

// splitmix64 is the deterministic jitter stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Run executes a single-query simulated experiment: RunMulti over
// cfg.Multi(), with the query's per-cluster view mapped back into a Result.
func Run(cfg Config) (*Result, error) {
	m, err := RunMulti(cfg.Multi())
	if err != nil {
		return nil, err
	}
	q := m.Queries[0]
	res := &Result{Total: m.Total, Seeks: m.Seeks, Faults: m.Faults}
	first, last := m.Total, time.Duration(0)
	for i, c := range m.Clusters {
		done := q.LocalDone[i]
		res.Clusters = append(res.Clusters, ClusterResult{Name: c.Name, Site: c.Site, Cores: c.Cores,
			Breakdown: q.Breakdown[i], Jobs: q.Jobs[i], BytesBySite: c.BytesBySite,
			RetrievalBusy: c.RetrievalBusy, LocalDone: done})
		if done < first {
			first = done
		}
		if done > last {
			last = done
		}
	}
	res.IdleTime = last - first
	res.GlobalReduction = m.Total - last
	return res, nil
}

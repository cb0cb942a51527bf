// Package experiments reproduces every table and figure in the paper's
// evaluation (§IV): the cloud-bursting feasibility study (Figure 3, Tables
// I and II), the scalability study (Figure 4), the processing-structure
// comparison motivating the API (Figure 1), and the headline aggregates
// (average hybrid slowdown ≈ 15.55 %, average scaling ≈ 81 % per core
// doubling). Paper-scale runs execute on internal/hybridsim; the API
// comparison runs the real engines on in-memory data.
//
// This file is the calibration: the mapping from the paper's testbed (OSU
// cluster: 8-core Xeons + Infiniband + a dedicated SATA storage node;
// AWS: m1.large instances + S3; 12 GB datasets in 32 files / 960 chunks)
// to the simulator's rate parameters. Absolute times are not expected to
// match the paper's (their hardware is gone); the calibration targets the
// SHAPES: who wins, by what factor, where the crossovers are.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/chunk"
	"repro/internal/hybridsim"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// App identifies one of the paper's evaluation applications.
type App string

// The three applications of §IV-A.
const (
	KNN      App = "knn"
	KMeans   App = "kmeans"
	PageRank App = "pagerank"
)

// Apps lists the applications in paper order.
var Apps = []App{KNN, KMeans, PageRank}

// Env identifies one of the five data/compute configurations of §IV-B.
type Env string

// The five environments: two centralized baselines and three hybrid splits
// with increasing data skew toward the cloud.
const (
	EnvLocal Env = "env-local"
	EnvCloud Env = "env-cloud"
	Env5050  Env = "env-50/50"
	Env3367  Env = "env-33/67"
	Env1783  Env = "env-17/83"
)

// Envs lists the environments in paper order.
var Envs = []Env{EnvLocal, EnvCloud, Env5050, Env3367, Env1783}

// HybridEnvs lists only the split configurations (Tables I and II).
var HybridEnvs = []Env{Env5050, Env3367, Env1783}

// LocalFraction returns the share of the dataset hosted on the local
// cluster's storage in each environment.
func (e Env) LocalFraction() float64 {
	switch e {
	case EnvLocal:
		return 1
	case EnvCloud:
		return 0
	case Env5050:
		return 0.5
	case Env3367:
		return 1.0 / 3.0
	case Env1783:
		return 1.0 / 6.0
	}
	return 0
}

const (
	mib = 1 << 20

	// Dataset geometry (§IV-A): 12 GB in 32 files; 960 chunks ⇒ jobs.
	unitSize      = 4096
	chunkUnits    = 3276 // ≈ 12.8 MiB chunks
	chunksPerFile = 30
	numFiles      = 32

	// Storage sites.
	siteLocal = 0 // the cluster's dedicated storage node
	siteCloud = 1 // Amazon S3
)

// DatasetIndex builds the paper-scale dataset layout: ≈12 GB, 32 files,
// 960 chunks. Only the geometry matters to the simulator; no bytes are
// materialized.
func DatasetIndex() *chunk.Index {
	ix, err := chunk.Layout("data", numFiles*chunksPerFile*chunkUnits, unitSize,
		chunksPerFile*chunkUnits, chunkUnits)
	if err != nil {
		panic(fmt.Sprintf("experiments: dataset layout: %v", err)) // static inputs
	}
	return ix
}

// appModel returns the application cost shape (per reference core).
//
//   - knn: low computation (fast scan) ⇒ retrieval-bound; tiny robj.
//   - kmeans: K×Dim distance kernel per point ⇒ compute-bound; small robj.
//   - pagerank: medium computation, high I/O; robj is the full rank vector
//     (modelled at 256 MiB ≈ 32 M pages × 8 B — the paper's exact object
//     size was lost to OCR; "large" is what drives the behaviour).
func appModel(app App) hybridsim.AppModel {
	switch app {
	case KNN:
		return hybridsim.AppModel{
			Name:               string(KNN),
			ComputeBytesPerSec: 100 * mib,
			RobjBytes:          2 << 10, // k=10 neighbors
			MergeBytesPerSec:   800 * mib,
		}
	case KMeans:
		return hybridsim.AppModel{
			Name:               string(KMeans),
			ComputeBytesPerSec: 3 * mib,
			RobjBytes:          16 << 10, // k=100 centers × dim
			MergeBytesPerSec:   800 * mib,
		}
	case PageRank:
		return hybridsim.AppModel{
			Name:               string(PageRank),
			ComputeBytesPerSec: 36 * mib,
			RobjBytes:          256 * mib, // full rank vector
			MergeBytesPerSec:   800 * mib,
		}
	}
	panic("experiments: unknown app " + string(app))
}

// Cores per environment (§IV-B table): 32 aggregate cores, halved across
// sites in the hybrid configurations. kmeans needs 22 cloud cores (and 44
// for env-cloud) to match the local cores' compute throughput, because
// m1.large virtual cores are slower than the cluster's Xeons.
func envCores(app App, env Env) (local, cloud int) {
	switch env {
	case EnvLocal:
		return 32, 0
	case EnvCloud:
		if app == KMeans {
			return 0, 44
		}
		return 0, 32
	default:
		if app == KMeans {
			return 16, 22
		}
		return 16, 16
	}
}

// cloudCoreSpeed is an m1.large elastic compute unit relative to a local
// Xeon core (the paper calibrated 22 cloud ≈ 16 local for kmeans).
const cloudCoreSpeed = 16.0 / 22.0

// Retrieval-path calibration. Aggregate retrieval bandwidth scales with
// the number of retrieval threads (one per core) up to the shared caps:
//
//   - local cluster ← storage node: 25 MiB/s per stream over Infiniband (one stream per two cores),
//     disk egress capped at 420 MiB/s.
//   - cloud ← S3: 26 MiB/s per stream (m1.large "high I/O"), S3 egress
//     capped at 500 MiB/s — slightly faster than the storage node, which
//     is why env-cloud retrieves faster than env-local (§IV-B).
//   - cross-WAN paths (local ← S3, cloud ← storage node): 8 MiB/s per
//     stream through a shared 128 MiB/s campus↔AWS pipe with 85 ms RTT/2 —
//     the fixed cost that makes data skew expensive.
const (
	localDiskPerStream = 25 * mib
	localDiskEgress    = 420 * mib
	localDiskLatency   = 200 * time.Microsecond
	localSeekPenalty   = 6 * time.Millisecond

	s3PerStream = 26 * mib
	s3Egress    = 500 * mib
	s3Latency   = 5 * time.Millisecond
	s3SeekOver  = 30 * time.Millisecond // extra first-byte cost of a non-sequential GET

	wanPerStream = 8 * mib
	wanPipe      = 128 * mib
	wanLatency   = 85 * time.Millisecond

	interClusterBW      = 100 * mib
	interClusterLatency = 85 * time.Millisecond

	controlLatencyLocal  = 500 * time.Microsecond
	controlLatencyHybrid = 40 * time.Millisecond

	jitterLocal = 0.03
	jitterCloud = 0.10
)

// SimOptions tweak a configuration for ablation studies.
type SimOptions struct {
	// Pool overrides the scheduling policy (consecutive grouping, steal
	// heuristic).
	Pool jobs.Options
	// RetrievalThreadsPerCore overrides the one-stream-per-core default
	// (0 keeps the default; the multi-threaded-retrieval ablation sets it).
	RetrievalThreadsPerCore float64
	// Obs attaches an observability bundle to the simulated run: metrics
	// always, per-job trace events when its tracer is enabled.
	Obs *obs.Obs
}

// Config builds the simulator configuration for an (app, env) cell of the
// evaluation, with the paper's core counts.
func Config(app App, env Env, opts SimOptions) hybridsim.Config {
	localCores, cloudCores := envCores(app, env)
	return ConfigWithCores(app, env, localCores, cloudCores, opts)
}

// ConfigWithCores builds the simulator configuration for an (app, env)
// data split with explicit core counts. localCores/cloudCores of zero omit
// that cluster entirely (the centralized baselines).
func ConfigWithCores(app App, env Env, localCores, cloudCores int, opts SimOptions) hybridsim.Config {
	ix := DatasetIndex()
	placement := jobs.SplitByFraction(numFiles, env.LocalFraction(), siteLocal, siteCloud)
	threads := opts.retrievalThreads

	var clusters []hybridsim.ClusterModel
	var paths = map[[2]int]hybridsim.PathModel{}
	hybrid := localCores > 0 && cloudCores > 0
	if localCores > 0 {
		ci := len(clusters)
		clusters = append(clusters, hybridsim.ClusterModel{
			Name: "local", Site: siteLocal,
			Cores: localCores, CoreSpeed: 1,
			RetrievalThreads: threads(localCores),
			Jitter:           jitterLocal,
		})
		paths[[2]int{ci, siteLocal}] = hybridsim.PathModel{
			PerStream: localDiskPerStream, Latency: localDiskLatency,
		}
		paths[[2]int{ci, siteCloud}] = hybridsim.PathModel{
			Bandwidth: wanPipe, PerStream: wanPerStream, Latency: wanLatency,
		}
	}
	if cloudCores > 0 {
		ci := len(clusters)
		clusters = append(clusters, hybridsim.ClusterModel{
			Name: "cloud", Site: siteCloud,
			Cores: cloudCores, CoreSpeed: cloudCoreSpeed,
			RetrievalThreads: threads(cloudCores),
			Jitter:           jitterCloud,
		})
		paths[[2]int{ci, siteCloud}] = hybridsim.PathModel{
			PerStream: s3PerStream, Latency: s3Latency,
		}
		paths[[2]int{ci, siteLocal}] = hybridsim.PathModel{
			Bandwidth: wanPipe, PerStream: wanPerStream, Latency: wanLatency,
		}
	}
	control := controlLatencyLocal
	if hybrid {
		control = controlLatencyHybrid
	}
	return hybridsim.Config{
		Index:     ix,
		Placement: placement,
		PoolOpts:  opts.Pool,
		Obs:       opts.Obs,
		App:       appModel(app),
		Topology: hybridsim.Topology{
			Clusters: clusters,
			SourceEgress: map[int]float64{
				siteLocal: localDiskEgress,
				siteCloud: s3Egress,
			},
			SeekPenalty: map[int]time.Duration{
				siteLocal: localSeekPenalty,
				siteCloud: s3SeekOver,
			},
			Paths:                 paths,
			ControlLatency:        control,
			InterClusterBandwidth: interClusterBW,
			InterClusterLatency:   interClusterLatency,
			HeadCluster:           0, // the head lives in the local cluster
		},
		Seed: 2011,
	}
}

// ScaleConfig builds the Figure-4 scalability configuration: the whole
// dataset in S3, m local + m cloud cores.
func ScaleConfig(app App, m int, opts SimOptions) hybridsim.Config {
	cfg := Config(app, Env5050, opts) // hybrid topology scaffold
	cfg.Placement = jobs.SplitByFraction(numFiles, 0, siteLocal, siteCloud)
	for i := range cfg.Topology.Clusters {
		cfg.Topology.Clusters[i].Cores = m
		cfg.Topology.Clusters[i].RetrievalThreads = opts.retrievalThreads(m)
	}
	return cfg
}

// retrievalThreads is a cluster's retrieval stream count: one per two cores
// unless RetrievalThreadsPerCore overrides it, at least one.
func (o SimOptions) retrievalThreads(cores int) int {
	perCore := 0.5
	if o.RetrievalThreadsPerCore > 0 {
		perCore = o.RetrievalThreadsPerCore
	}
	if t := int(float64(cores)*perCore + 0.5); t > 1 {
		return t
	}
	return 1
}

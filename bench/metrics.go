package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may get worse before `bench compare`
// (and the driver) call it a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a user of the middleware sees, measured with
// tracing off, under the same names on every workload. failed_ops_ratio from
// the issue is not here: it is 0 on a healthy run and a relative bound on 0
// is meaningless, so failures travel in the result's attempted/failed counts
// and any failure makes the run incorrect.
//
// A bound holds for all six workloads, so the noisiest one sets it. On the
// shared 2-core box this benchmark was written on, the CPU-bound workloads
// (knn-lan, multiquery-control) drift by up to 16 % between runs with the
// neighbours' load, so every time-based bound is the contract's maximum;
// bench/README.md has the measured spreads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"makespan_p50_s", "s", "lower", 0.25},
	{"throughput_mb_s", "MB/s", "higher", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"cpu_s_per_gb", "s/GB", "lower", 0.25},
	{"allocs_per_job", "count", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the single-layer numbers of the traced run, `<module>.<name>`.
// bench/README.md says which end-to-end metric each should move and where.
var perLayer = []metricDef{
	// objstore: timed chunk.Source wrapper innermost around objstore.Source.
	{"objstore.read_busy_s", "s", "lower", 0},
	{"objstore.read_mb_s", "MB/s", "higher", 0},
	{"objstore.reads", "count", "lower", 0},
	{"objstore.read_p50_ms", "ms", "lower", 0},
	{"objstore.read_p99_ms", "ms", "lower", 0},
	{"objstore.read_errors", "count", "lower", 0},
	{"objstore.get_mem_mb_s", "MB/s", "higher", 0},
	{"objstore.get_mem_roofline", "ratio", "higher", 0},
	{"objstore.get_dir_mb_s", "MB/s", "higher", 0},
	{"objstore.put_mb_s", "MB/s", "higher", 0},
	{"objstore.stat_rtt_us", "us", "lower", 0},
	// chunk: the agent's own VerifyingSource, seen as its reported retrieval
	// time minus the time inside the benchmark's outermost source wrapper.
	{"chunk.verify_self_s", "s", "lower", 0},
	{"chunk.verify_mb_s", "MB/s", "higher", 0},
	{"chunk.checksum_mb_s", "MB/s", "higher", 0},
	{"chunk.checksum_roofline", "ratio", "higher", 0},
	// transport / protocol.
	{"transport.chunk_roundtrip_mb_s", "MB/s", "higher", 0},
	{"transport.chunk_roundtrip_roofline", "ratio", "higher", 0},
	{"transport.small_rtt_us", "us", "lower", 0},
	{"protocol.encode_poll_ns", "ns", "lower", 0},
	{"protocol.decode_poll_ns", "ns", "lower", 0},
	{"protocol.control_bytes_per_job", "B", "lower", 0},
	// stagecache.
	{"stagecache.read_self_s", "s", "lower", 0},
	{"stagecache.hits", "count", "higher", 0},
	{"stagecache.misses", "count", "lower", 0},
	{"stagecache.hit_ratio", "ratio", "higher", 0},
	{"stagecache.cold_hit_ratio", "ratio", "higher", 0},
	{"stagecache.warm_hit_ratio", "ratio", "higher", 0},
	{"stagecache.evictions", "count", "lower", 0},
	{"stagecache.bytes_staged", "B", "higher", 0},
	{"stagecache.cold_pass_s", "s", "lower", 0},
	{"stagecache.warm_pass_p50_s", "s", "lower", 0},
	{"stagecache.hit_mb_s", "MB/s", "higher", 0},
	{"stagecache.miss_mb_s", "MB/s", "higher", 0},
	// bufpool.
	{"bufpool.gets", "count", "lower", 0},
	{"bufpool.allocs", "count", "lower", 0},
	{"bufpool.hit_ratio", "ratio", "higher", 0},
	{"bufpool.outstanding", "count", "lower", 0},
	{"bufpool.alloc_kb_per_job", "KB", "lower", 0},
	// core / apps.
	{"core.fold_busy_s", "s", "lower", 0},
	{"core.fold_mb_s", "MB/s", "higher", 0},
	{"core.fold_calls", "count", "lower", 0},
	{"core.global_reduce_s", "s", "lower", 0},
	{"apps.knn_fold_mb_s", "MB/s", "higher", 0},
	{"apps.kmeans_fold_mb_s", "MB/s", "higher", 0},
	{"apps.pagerank_fold_mb_s", "MB/s", "higher", 0},
	{"apps.histogram_fold_mb_s", "MB/s", "higher", 0},
	{"apps.robj_bytes", "B", "lower", 0},
	{"apps.robj_encode_s", "s", "lower", 0},
	{"apps.robj_decode_s", "s", "lower", 0},
	// head: a cluster.QueryClient wrapper around RemoteAgent.
	{"head.poll_rtt_p50_us", "us", "lower", 0},
	{"head.poll_rtt_p99_us", "us", "lower", 0},
	{"head.polls", "count", "lower", 0},
	{"head.empty_polls", "count", "lower", 0},
	{"head.jobs_per_poll", "count", "higher", 0},
	{"head.commit_rtt_p50_us", "us", "lower", 0},
	{"head.commit_rtt_p99_us", "us", "lower", 0},
	{"head.commits", "count", "lower", 0},
	{"head.query_spec_s", "s", "lower", 0},
	{"head.submit_result_s", "s", "lower", 0},
	{"head.admit_us", "us", "lower", 0},
	{"head.poll_grants_per_s", "1/s", "higher", 0},
	{"jobs.pool_grants_per_s", "1/s", "higher", 0},
	// jobs: from head.ClusterReports and the client wrapper.
	{"jobs.local", "count", "higher", 0},
	{"jobs.stolen", "count", "lower", 0},
	{"jobs.stolen_ratio", "ratio", "lower", 0},
	{"jobs.dup_commits", "count", "lower", 0},
	{"jobs.fair_share_error", "ratio", "lower", 0},
	// cluster: the paper's three bars plus what they leave out.
	{"cluster.processing_s", "s", "lower", 0},
	{"cluster.retrieval_s", "s", "lower", 0},
	{"cluster.sync_s", "s", "lower", 0},
	{"cluster.idle_s", "s", "lower", 0},
	{"cluster.site_imbalance_ratio", "ratio", "lower", 0},
	{"cluster.job_latency_p50_ms", "ms", "lower", 0},
	{"cluster.job_latency_p99_ms", "ms", "lower", 0},
	{"cluster.admit_pickup_ms", "ms", "lower", 0},
	// netem.
	{"netem.wan_bytes", "B", "lower", 0},
	{"netem.wan_utilisation", "ratio", "higher", 0},
	// control-plane microbenches.
	{"elastic.arbiter_step_ns", "ns", "lower", 0},
	{"hybridsim.sim_jobs_per_s", "1/s", "higher", 0},
	// rooflines of this machine, same run.
	{"baseline.memcpy_gb_s", "GB/s", "higher", 0},
	{"baseline.loopback_tcp_mb_s", "MB/s", "higher", 0},
	{"baseline.crc32c_mb_s", "MB/s", "higher", 0},
	// attribution.
	{"bench.sync_tail_s", "s", "lower", 0},
	{"bench.explained_s", "s", "higher", 0},
	{"bench.residual_s", "s", "lower", 0},
	{"bench.residual_ratio", "ratio", "lower", 0},
	{"bench.trace_overhead_ratio", "ratio", "lower", 0},
	{"bench.goroutines_leaked", "count", "lower", 0},
}

// units maps every declared metric to its unit.
var units = func() map[string]string {
	m := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.Name] = d.Unit
	}
	return m
}()

// median returns the middle of vs (mean of the two middles for an even
// count); 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	return percentile(vs, 0.5)
}

// percentile returns the p-quantile (0..1) of vs by linear interpolation
// between closest ranks; 0 for an empty slice. vs is not modified.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vs, n=4) (the default exclusive method) gives them —
// the rule the driver applies to the run-to-run spread. It needs two values.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n < 2 {
		v := median(vs)
		return v, v
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

func durationsToMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Package estimate predicts a hybrid run's makespan analytically, without
// simulation — the planner's fast path for provisioning decisions.
//
// The model treats the run as a fluid transportation problem: data hosted
// at each storage site must flow to clusters, where flow is limited by
//
//   - per-(cluster, site) path capacity: retrieval streams × per-stream
//     bandwidth, capped by the shared path pipe,
//   - per-cluster compute capacity: cores × speed × app rate,
//   - per-site egress capacity (disk / object-store service rate).
//
// The smallest horizon T for which a feasible flow drains every site's
// data is found by binary search, with feasibility decided by max-flow on
// the site→cluster bipartite graph. A global-reduction tail (reduction-
// object transfer + serial merges) is added on top.
//
// The estimator is deliberately optimistic — it ignores job granularity,
// end-game imbalance and control latency — so it is a lower bound that
// tracks the simulator within tens of percent (see the validation tests).
package estimate

import (
	"fmt"
	"math"
	"time"

	"repro/internal/hybridsim"
)

// Estimate is the analytic prediction for one configuration.
type Estimate struct {
	// Processing is the pure drain time: the smallest feasible horizon T.
	Processing time.Duration
	// GlobalReduction is the reduction-object tail.
	GlobalReduction time.Duration
}

// Total returns the predicted makespan.
func (e Estimate) Total() time.Duration { return e.Processing + e.GlobalReduction }

// Makespan predicts the makespan of cfg.
func Makespan(cfg hybridsim.Config) (Estimate, error) {
	if cfg.Index == nil || len(cfg.Topology.Clusters) == 0 {
		return Estimate{}, fmt.Errorf("estimate: incomplete config")
	}
	// Bytes hosted per site.
	demand := map[int]float64{}
	for fi, site := range cfg.Placement {
		demand[site] += float64(cfg.Index.Files[fi].Size)
	}
	return makespan(cfg, demand)
}

// MakespanRemaining predicts the makespan of draining only the given
// remaining work (bytes left to process, keyed by hosting site) on cfg's
// topology — the elastic arbiter's re-estimation entry point, fed from
// jobs.Pool.RemainingBytesBySite mid-run. Like Makespan it is a deliberate
// lower bound: it assumes the remaining bytes flow as a fluid from a cold
// start, ignoring in-flight partial jobs and end-game imbalance. Sites with
// zero (or negative) remaining bytes are dropped from the demand.
func MakespanRemaining(cfg hybridsim.Config, remaining map[int]int64) (Estimate, error) {
	if len(cfg.Topology.Clusters) == 0 {
		return Estimate{}, fmt.Errorf("estimate: incomplete config")
	}
	demand := map[int]float64{}
	for site, b := range remaining {
		if b > 0 {
			demand[site] += float64(b)
		}
	}
	return makespan(cfg, demand)
}

// ShareScaledRemaining inflates one query's remaining bytes by the inverse
// of its weighted fair share: under jobs.FairShare a query holding weight of
// totalWeight receives that fraction of the fleet's throughput, so its drain
// time at full-fleet rates is its demand scaled by totalWeight/weight. The
// session-wide elastic arbiter feeds the scaled map to MakespanRemaining to
// get a per-query finish estimate that accounts for the competing queries.
// Returns a fresh map; degenerate weights (weight ≤ 0, or weight ≥
// totalWeight, i.e. the query has the fleet to itself) apply no scaling.
func ShareScaledRemaining(remaining map[int]int64, weight, totalWeight int) map[int]int64 {
	out := make(map[int]int64, len(remaining))
	scale := weight > 0 && totalWeight > weight
	for site, b := range remaining {
		if scale && b > 0 {
			b = (b*int64(totalWeight) + int64(weight) - 1) / int64(weight)
		}
		out[site] = b
	}
	return out
}

// makespan is the shared core: binary-search the smallest horizon whose
// max-flow drains demand (bytes per site), then add the reduction tail.
func makespan(cfg hybridsim.Config, demand map[int]float64) (Estimate, error) {
	if cfg.App.ComputeBytesPerSec <= 0 {
		return Estimate{}, fmt.Errorf("estimate: App.ComputeBytesPerSec must be positive")
	}
	m := buildModel(cfg, demand)

	// Binary search the horizon. Upper bound: serve everything through the
	// single slowest positive capacity.
	var total float64
	for _, d := range demand {
		total += d
	}
	if total == 0 {
		return Estimate{GlobalReduction: grTail(cfg)}, nil
	}
	slowest := math.Inf(1)
	for _, e := range m.edges {
		if e.cap > 0 && e.cap < slowest {
			slowest = e.cap
		}
	}
	for _, comp := range m.clusters {
		if comp > 0 && comp < slowest {
			slowest = comp
		}
	}
	for _, eg := range m.egress {
		if eg > 0 && eg < slowest {
			slowest = eg
		}
	}
	if math.IsInf(slowest, 1) {
		return Estimate{}, fmt.Errorf("estimate: no constrained path")
	}
	lo, hi := 0.0, total/slowest*4+1
	if !m.feasible(demand, hi) {
		return Estimate{}, fmt.Errorf("estimate: no feasible flow drains the dataset (disconnected topology?)")
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if m.feasible(demand, mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return Estimate{
		Processing:      time.Duration(hi * float64(time.Second)),
		GlobalReduction: grTail(cfg),
	}, nil
}

// grTail estimates the global-reduction tail: non-head clusters' reduction
// objects cross the shared inter-cluster pipe (concurrently, so the pipe is
// split), then the head merges all objects serially.
func grTail(cfg hybridsim.Config) time.Duration {
	t := cfg.Topology
	payers := 0
	for i := range t.Clusters {
		if i != t.HeadCluster {
			payers++
		}
	}
	var tail time.Duration
	if payers > 0 {
		tail += t.InterClusterLatency
		if t.InterClusterBandwidth > 0 {
			totalBytes := float64(cfg.App.RobjBytes) * float64(payers)
			tail += time.Duration(totalBytes / t.InterClusterBandwidth * float64(time.Second))
		}
	}
	if cfg.App.MergeBytesPerSec > 0 {
		merge := float64(cfg.App.RobjBytes) / cfg.App.MergeBytesPerSec
		tail += time.Duration(merge * float64(len(t.Clusters)) * float64(time.Second))
	}
	tail += t.ControlLatency
	return tail
}

// ---------------------------------------------------------------------------
// Transportation feasibility via max-flow.

type edge struct {
	cluster int
	site    int
	cap     float64 // bytes/sec; Inf = unconstrained
}

type model struct {
	clusters []float64 // compute capacity per cluster (bytes/sec)
	egress   map[int]float64
	edges    []edge
}

func buildModel(cfg hybridsim.Config, demand map[int]float64) *model {
	m := &model{egress: map[int]float64{}}
	for site, cap := range cfg.Topology.SourceEgress {
		if cap > 0 {
			m.egress[site] = cap
		}
	}
	// A burst-side replica (Topology.Stage) serves the expected HitRate
	// fraction of remote reads at replica rates instead of origin egress:
	// blend it into an effective per-site egress so retrieval-bound
	// configurations stop looking egress-capped once staging is on. Capped
	// at 95% — the estimator stays a finite lower bound even for a claimed
	// perfect cache.
	st := cfg.Topology.Stage
	hit := 0.0
	if st != nil {
		hit = st.HitRate
		if hit > 0.95 {
			hit = 0.95
		}
		if hit < 0 {
			hit = 0
		}
	}
	if hit > 0 {
		for site, eg := range m.egress {
			if site == st.Site {
				continue
			}
			// Only (1-h) of the flow draws the origin; the rest comes from
			// the replica, whose own serve rate bounds the benefit.
			eff := eg / (1 - hit)
			if st.ServeRate > 0 && eg+st.ServeRate < eff {
				eff = eg + st.ServeRate
			}
			m.egress[site] = eff
		}
	}
	sites := map[int]bool{}
	for site := range demand {
		sites[site] = true
	}
	for ci, c := range cfg.Topology.Clusters {
		speed := c.CoreSpeed
		if speed <= 0 {
			speed = 1
		}
		m.clusters = append(m.clusters, float64(c.Cores)*speed*cfg.App.ComputeBytesPerSec)
		threads := c.RetrievalThreads
		if threads <= 0 {
			threads = 2
		}
		for site := range sites {
			cap := math.Inf(1)
			if pm, ok := cfg.Topology.Paths[[2]int{ci, site}]; ok {
				if pm.PerStream > 0 {
					cap = pm.PerStream * float64(threads)
				}
				if pm.Bandwidth > 0 && pm.Bandwidth < cap {
					cap = pm.Bandwidth
				}
			}
			if hit > 0 && site != st.Site && c.Site != site && !math.IsInf(cap, 1) {
				// Cached reads ride the cluster→replica path instead of the
				// cluster→origin path.
				serveCap := math.Inf(1)
				if pm, ok := cfg.Topology.Paths[[2]int{ci, st.Site}]; ok {
					if pm.PerStream > 0 {
						serveCap = pm.PerStream * float64(threads)
					}
					if pm.Bandwidth > 0 && pm.Bandwidth < serveCap {
						serveCap = pm.Bandwidth
					}
				}
				if st.ServePerStream > 0 {
					if sc := st.ServePerStream * float64(threads); sc < serveCap {
						serveCap = sc
					}
				}
				if st.ServeRate > 0 && st.ServeRate < serveCap {
					serveCap = st.ServeRate
				}
				eff := cap / (1 - hit)
				if !math.IsInf(serveCap, 1) && cap+serveCap < eff {
					eff = cap + serveCap
				}
				cap = eff
			}
			m.edges = append(m.edges, edge{cluster: ci, site: site, cap: cap})
		}
	}
	return m
}

// feasible reports whether demand (bytes per site) can be drained within
// horizon seconds: max-flow from sites to clusters must move all bytes.
// Node layout: 0 = source, 1..S = sites, S+1..S+C = clusters, S+C+1 = sink.
func (m *model) feasible(demand map[int]float64, horizon float64) bool {
	if horizon <= 0 {
		return false
	}
	siteIDs := make([]int, 0, len(demand))
	for s := range demand {
		siteIDs = append(siteIDs, s)
	}
	// Deterministic order.
	for i := 0; i < len(siteIDs); i++ {
		for j := i + 1; j < len(siteIDs); j++ {
			if siteIDs[j] < siteIDs[i] {
				siteIDs[i], siteIDs[j] = siteIDs[j], siteIDs[i]
			}
		}
	}
	siteNode := map[int]int{}
	for i, s := range siteIDs {
		siteNode[s] = 1 + i
	}
	S, C := len(siteIDs), len(m.clusters)
	n := S + C + 2
	sink := n - 1
	g := newFlowGraph(n)

	var want float64
	for _, s := range siteIDs {
		// Source → site: the bytes that must leave the site. Cap the rate
		// by the site's egress × horizon.
		amount := demand[s]
		want += amount
		cap := amount
		if eg, ok := m.egress[s]; ok {
			if lim := eg * horizon; lim < cap {
				cap = lim
			}
		}
		g.addEdge(0, siteNode[s], cap)
	}
	for _, e := range m.edges {
		sn, ok := siteNode[e.site]
		if !ok {
			continue
		}
		cap := math.Inf(1)
		if !math.IsInf(e.cap, 1) {
			cap = e.cap * horizon
		}
		g.addEdge(sn, 1+S+e.cluster, cap)
	}
	for ci, comp := range m.clusters {
		g.addEdge(1+S+ci, sink, comp*horizon)
	}
	const slack = 1e-6
	return g.maxFlow(0, sink) >= want*(1-slack)
}

// flowGraph is a small capacity-scaling-free Ford-Fulkerson (BFS augmenting
// paths), ample for the handful of nodes involved.
type flowGraph struct {
	n    int
	head [][]int // adjacency: node → arc indices
	to   []int
	cap  []float64
}

func newFlowGraph(n int) *flowGraph {
	return &flowGraph{n: n, head: make([][]int, n)}
}

func (g *flowGraph) addEdge(u, v int, cap float64) {
	g.head[u] = append(g.head[u], len(g.to))
	g.to = append(g.to, v)
	g.cap = append(g.cap, cap)
	g.head[v] = append(g.head[v], len(g.to))
	g.to = append(g.to, u)
	g.cap = append(g.cap, 0)
}

func (g *flowGraph) maxFlow(s, t int) float64 {
	var total float64
	for {
		// BFS for an augmenting path.
		parentArc := make([]int, g.n)
		for i := range parentArc {
			parentArc[i] = -1
		}
		visited := make([]bool, g.n)
		visited[s] = true
		queue := []int{s}
		for len(queue) > 0 && !visited[t] {
			u := queue[0]
			queue = queue[1:]
			for _, ai := range g.head[u] {
				v := g.to[ai]
				if !visited[v] && g.cap[ai] > 1e-12 {
					visited[v] = true
					parentArc[v] = ai
					queue = append(queue, v)
				}
			}
		}
		if !visited[t] {
			return total
		}
		// Bottleneck along the path.
		aug := math.Inf(1)
		for v := t; v != s; {
			ai := parentArc[v]
			if g.cap[ai] < aug {
				aug = g.cap[ai]
			}
			v = g.to[ai^1]
		}
		if math.IsInf(aug, 1) {
			// An unconstrained source→sink path means infinite throughput.
			return math.Inf(1)
		}
		for v := t; v != s; {
			ai := parentArc[v]
			g.cap[ai] -= aug
			g.cap[ai^1] += aug
			v = g.to[ai^1]
		}
		total += aug
	}
}

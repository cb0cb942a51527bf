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
// data is the least cut in closed form: for each set of data sites on the
// source side of a cut, the least T at which that cut holds the data comes
// from one walk over the sites' egress bends, and T is the largest of
// these. With S data sites and C clusters that costs O(2^S·S·C), so more
// than 16 sites with data are refused with an error. A global-reduction
// tail (reduction-object transfer + serial merges) is added on top.
//
// The estimator is deliberately optimistic — it ignores job granularity,
// end-game imbalance and control latency — so it is a lower bound that
// tracks the simulator within tens of percent (see the validation tests).
package estimate

import (
	"fmt"
	"math"
	"sort"
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

// Makespan predicts the makespan of cfg. The model is single-app: it reads
// the first query's dataset and cost shape, so cfg carries one query.
func Makespan(cfg hybridsim.Config) (Estimate, error) {
	if len(cfg.Queries) == 0 || cfg.Queries[0].Index == nil || len(cfg.Topology.Clusters) == 0 {
		return Estimate{}, fmt.Errorf("estimate: incomplete config")
	}
	// Bytes hosted per site.
	q := cfg.Queries[0]
	demand := map[int]float64{}
	for fi, site := range q.Placement {
		demand[site] += float64(q.Index.Files[fi].Size)
	}
	return makespan(cfg, demand)
}

// MakespanRemaining predicts the makespan of draining only the given
// remaining work (bytes left to process, keyed by hosting site) on cfg's
// topology at the first query's cost shape — the elastic arbiter's
// re-estimation entry point, fed from jobs.Pool.RemainingBytesBySite
// mid-run. Like Makespan it is a deliberate lower bound: it assumes the
// remaining bytes flow as a fluid from a cold start, ignoring in-flight
// partial jobs and end-game imbalance. Sites with zero (or negative)
// remaining bytes are dropped from the demand.
func MakespanRemaining(cfg hybridsim.Config, remaining map[int]int64) (Estimate, error) {
	if len(cfg.Queries) == 0 || len(cfg.Topology.Clusters) == 0 {
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

// makespan is the shared core: the smallest horizon in which a flow drains
// demand (bytes per site), plus the reduction tail.
func makespan(cfg hybridsim.Config, demand map[int]float64) (Estimate, error) {
	if cfg.Queries[0].App.ComputeBytesPerSec <= 0 {
		return Estimate{}, fmt.Errorf("estimate: App.ComputeBytesPerSec must be positive")
	}
	m := buildModel(cfg, demand)
	if len(m.demand) == 0 {
		return Estimate{GlobalReduction: grTail(cfg)}, nil
	}
	if len(m.demand) > maxSites {
		return Estimate{}, fmt.Errorf("estimate: %d data sites with demand, more than %d", len(m.demand), maxSites)
	}
	t := m.horizon()
	if math.IsInf(t, 1) {
		return Estimate{}, fmt.Errorf("estimate: no feasible flow drains the dataset (disconnected topology?)")
	}
	return Estimate{
		Processing:      time.Duration(t * float64(time.Second)),
		GlobalReduction: grTail(cfg),
	}, nil
}

// grTail estimates the global-reduction tail: non-head clusters' reduction
// objects cross the shared inter-cluster pipe (concurrently, so the pipe is
// split), then the head merges all objects serially.
func grTail(cfg hybridsim.Config) time.Duration {
	t, app := cfg.Topology, cfg.Queries[0].App
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
			totalBytes := float64(app.RobjBytes) * float64(payers)
			tail += time.Duration(totalBytes / t.InterClusterBandwidth * float64(time.Second))
		}
	}
	if app.MergeBytesPerSec > 0 {
		merge := float64(app.RobjBytes) / app.MergeBytesPerSec
		tail += time.Duration(merge * float64(len(t.Clusters)) * float64(time.Second))
	}
	tail += t.ControlLatency
	return tail
}

// ---------------------------------------------------------------------------
// The transportation network and its least cut.

// maxSites bounds the data sites with demand. horizon visits every subset
// of them, and at 16 sites that walk costs about as much as the sixty
// max-flows of a bisection would.
const maxSites = 16

// slack is the share of the demand a horizon may leave undrained, so that
// rounding in the rates never makes a drainable demand look infeasible.
const slack = 1e-6

// model is the flow network for one demand: source → data site → cluster →
// sink, with every rate in bytes/sec and +Inf where unconstrained. Over a
// horizon of T seconds the source→site edge carries min(demand, egress·T),
// the site→cluster edge link·T and the cluster→sink edge comp·T.
type model struct {
	demand []float64 // bytes per data site, in ascending site order
	egress []float64 // per data site
	comp   []float64 // per cluster
	link   []float64 // per cluster, then per data site: link[c*len(demand)+s]
}

// buildModel lays out the network for the sites with positive demand: a
// site without demand never holds up a drain, so it is left out.
func buildModel(cfg hybridsim.Config, demand map[int]float64) *model {
	sites := make([]int, 0, len(demand))
	for site, d := range demand {
		if d > 0 {
			sites = append(sites, site)
		}
	}
	sort.Ints(sites)
	top := cfg.Topology
	S := len(sites)
	m := &model{
		demand: make([]float64, S),
		egress: make([]float64, S),
		comp:   make([]float64, len(top.Clusters)),
		link:   make([]float64, len(top.Clusters)*S),
	}
	// A burst-side replica (Topology.Stage) serves the expected HitRate
	// fraction of remote reads at replica rates instead of origin egress:
	// blend it into an effective per-site egress so retrieval-bound
	// configurations stop looking egress-capped once staging is on. Capped
	// at 95% — the estimator stays a finite lower bound even for a claimed
	// perfect cache.
	st := top.Stage
	hit := 0.0
	if st != nil {
		hit = max(0, min(st.HitRate, 0.95))
	}
	for i, site := range sites {
		m.demand[i] = demand[site]
		m.egress[i] = math.Inf(1)
		eg := top.SourceEgress[site]
		if eg <= 0 {
			continue
		}
		if hit > 0 && site != st.Site {
			// Only (1-h) of the flow draws the origin; the rest comes from
			// the replica, whose own serve rate bounds the benefit.
			eff := eg / (1 - hit)
			if st.ServeRate > 0 && eg+st.ServeRate < eff {
				eff = eg + st.ServeRate
			}
			eg = eff
		}
		m.egress[i] = eg
	}
	for ci, c := range top.Clusters {
		speed := c.CoreSpeed
		if speed <= 0 {
			speed = 1
		}
		m.comp[ci] = float64(c.Cores) * speed * cfg.Queries[0].App.ComputeBytesPerSec
		threads := c.RetrievalThreads
		if threads <= 0 {
			threads = 2
		}
		for i, site := range sites {
			cap := pathRate(top.Paths, ci, site, threads)
			if hit > 0 && site != st.Site && c.Site != site && !math.IsInf(cap, 1) {
				// Cached reads ride the cluster→replica path instead of the
				// cluster→origin path.
				serveCap := pathRate(top.Paths, ci, st.Site, threads)
				if st.ServePerStream > 0 {
					serveCap = min(serveCap, st.ServePerStream*float64(threads))
				}
				if st.ServeRate > 0 {
					serveCap = min(serveCap, st.ServeRate)
				}
				eff := cap / (1 - hit)
				if !math.IsInf(serveCap, 1) && cap+serveCap < eff {
					eff = cap + serveCap
				}
				cap = eff
			}
			m.link[ci*S+i] = cap
		}
	}
	return m
}

// pathRate is the rate of cluster's path to site with threads retrieval
// streams: streams × per-stream bandwidth, capped by the shared pipe, and
// +Inf for a path with no model.
func pathRate(paths map[[2]int]hybridsim.PathModel, cluster, site, threads int) float64 {
	rate := math.Inf(1)
	if pm, ok := paths[[2]int{cluster, site}]; ok {
		if pm.PerStream > 0 {
			rate = pm.PerStream * float64(threads)
		}
		if pm.Bandwidth > 0 && pm.Bandwidth < rate {
			rate = pm.Bandwidth
		}
	}
	return rate
}

// horizon returns the smallest T (seconds) in which a flow drains all but
// slack of the demand, or +Inf when no flow ever does. A flow drains it
// within T exactly when every cut holds that much. With the sites of a set
// A on the source side, each cluster takes its cheaper side on its own, so
// the least cut over A is
//
//	cut_A(T) = Σ_{s∉A} min(d_s, eg_s·T) + T·Σ_c min(comp_c, Σ_{s∈A} link_sc),
//
// nondecreasing, concave and piecewise linear in T, bending at d_s/eg_s.
// T is the largest over all A of the least T at which cut_A reaches the
// target: one walk over the sorted bends per subset, O(2^S·S·C) in all.
func (m *model) horizon() float64 {
	S := len(m.demand)
	var want float64
	for _, d := range m.demand {
		want += d
	}
	want *= 1 - slack
	// The sites with an egress cap, in ascending order of their bend.
	var bends [maxSites]int
	n := 0
	for s, eg := range m.egress {
		if math.IsInf(eg, 1) {
			continue
		}
		j := n
		for ; j > 0 && m.demand[bends[j-1]]/m.egress[bends[j-1]] > m.demand[s]/eg; j-- {
			bends[j] = bends[j-1]
		}
		bends[j] = s
		n++
	}
	worst := 0.0
	for A := 0; A < 1<<S; A++ {
		in := func(s int) bool { return A&(1<<s) != 0 }
		// The cut's slope from the clusters, and its level from the
		// uncapped sites outside A.
		var slope, level float64
		for c, comp := range m.comp {
			var reach float64
			for s, l := range m.link[c*S : (c+1)*S] {
				if in(s) {
					reach += l
				}
			}
			slope += min(comp, reach)
		}
		for s, eg := range m.egress {
			if !in(s) && math.IsInf(eg, 1) {
				level += m.demand[s]
			}
		}
		// rest[i] is the egress of the capped sites outside A from bend i
		// on: the slope they add before they saturate.
		var rest [maxSites + 1]float64
		for i := n - 1; i >= 0; i-- {
			rest[i] = rest[i+1]
			if !in(bends[i]) {
				rest[i] += m.egress[bends[i]]
			}
		}
		// Walk the bends to the segment on which cut_A reaches want.
		t, i := 0.0, 0
		for ; i < n; i++ {
			s := bends[i]
			if in(s) {
				continue
			}
			b := m.demand[s] / m.egress[s]
			if level+(slope+rest[i])*b >= want {
				break
			}
			level += m.demand[s]
			t = b
		}
		switch k := slope + rest[i]; {
		case k > 0:
			t = (want - level) / k
		case level < want:
			return math.Inf(1)
		}
		worst = max(worst, t)
	}
	return worst
}

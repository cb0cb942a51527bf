package estimate

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/hybridsim"
)

// The reference: the estimator's drain horizon found the long way, by
// bisecting the horizon and deciding each step with a max-flow over the
// model's network. The closed form in horizon must agree with it.

// bisect returns the smallest horizon at which feasible holds, to within
// sixty halvings of a bracket that one path through the slowest positive
// rate already drains.
func (m *model) bisect() (float64, error) {
	var total float64
	for _, d := range m.demand {
		total += d
	}
	if total == 0 {
		return 0, nil
	}
	slowest := math.Inf(1)
	for _, rates := range [][]float64{m.egress, m.comp, m.link} {
		for _, r := range rates {
			if r > 0 && r < slowest {
				slowest = r
			}
		}
	}
	if math.IsInf(slowest, 1) {
		return 0, fmt.Errorf("estimate: no constrained path")
	}
	lo, hi := 0.0, total/slowest*4+1
	if !m.feasible(hi) {
		return 0, fmt.Errorf("estimate: no feasible flow drains the dataset (disconnected topology?)")
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if m.feasible(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// feasible reports whether the demand can be drained within horizon
// seconds: max-flow from sites to clusters must move all but slack of it.
// Node layout: 0 = source, 1..S = sites, S+1..S+C = clusters, S+C+1 = sink.
func (m *model) feasible(horizon float64) bool {
	if horizon <= 0 {
		return false
	}
	S, C := len(m.demand), len(m.comp)
	sink := S + C + 1
	g := newFlowGraph(S+C+2, S+C*S+C)
	var want float64
	for s, d := range m.demand {
		want += d
		g.addEdge(0, 1+s, math.Min(d, m.egress[s]*horizon))
	}
	for c := 0; c < C; c++ {
		for s := 0; s < S; s++ {
			g.addEdge(1+s, 1+S+c, m.link[c*S+s]*horizon)
		}
	}
	for c, comp := range m.comp {
		g.addEdge(1+S+c, sink, comp*horizon)
	}
	return g.maxFlow(0, sink) >= want*(1-slack)
}

// flowGraph is a small capacity-scaling-free Ford-Fulkerson (BFS augmenting
// paths), ample for the handful of nodes involved. newFlowGraph sizes it
// for the given number of edges; more may be added.
type flowGraph struct {
	n    int
	head [][]int // adjacency: node → arc indices
	to   []int
	cap  []float64
}

func newFlowGraph(n, edges int) *flowGraph {
	return &flowGraph{n: n, head: make([][]int, n), to: make([]int, 0, 2*edges), cap: make([]float64, 0, 2*edges)}
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
	parentArc := make([]int, g.n)
	visited := make([]bool, g.n)
	queue := make([]int, 0, g.n)
	for {
		// BFS for an augmenting path.
		for i := range parentArc {
			parentArc[i] = -1
			visited[i] = false
		}
		visited[s] = true
		queue = append(queue[:0], s)
		for head := 0; head < len(queue) && !visited[t]; head++ {
			u := queue[head]
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

func TestMaxFlowBasics(t *testing.T) {
	g := newFlowGraph(4, 5)
	g.addEdge(0, 1, 3)
	g.addEdge(0, 2, 2)
	g.addEdge(1, 3, 2)
	g.addEdge(2, 3, 3)
	g.addEdge(1, 2, 5)
	// Source cut is 5 and reachable: 2 via 1→3, 2 via 2→3, 1 via 1→2→3.
	if got := g.maxFlow(0, 3); math.Abs(got-5) > 1e-9 {
		t.Errorf("maxflow = %v, want 5", got)
	}
	// Tighten the sink side: min cut becomes 4.
	g2 := newFlowGraph(4, 5)
	g2.addEdge(0, 1, 3)
	g2.addEdge(0, 2, 2)
	g2.addEdge(1, 3, 2)
	g2.addEdge(2, 3, 2)
	g2.addEdge(1, 2, 5)
	if got := g2.maxFlow(0, 3); math.Abs(got-4) > 1e-9 {
		t.Errorf("maxflow = %v, want 4", got)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := newFlowGraph(4, 5)
	g.addEdge(0, 1, 3)
	g.addEdge(2, 3, 3)
	if got := g.maxFlow(0, 3); got != 0 {
		t.Errorf("disconnected maxflow = %v", got)
	}
}

func TestMaxFlowInfinitePath(t *testing.T) {
	g := newFlowGraph(3, 2)
	g.addEdge(0, 1, math.Inf(1))
	g.addEdge(1, 2, math.Inf(1))
	if got := g.maxFlow(0, 2); !math.IsInf(got, 1) {
		t.Errorf("unconstrained maxflow = %v, want +Inf", got)
	}
}

// rate draws a rate (or size) log-uniform over [1 MiB, 1 GiB].
func rate(rng *rand.Rand) float64 {
	return math.Exp2(20 + 10*rng.Float64())
}

// randomModel draws a network with up to 5 sites and 64 clusters (small
// fleets the likelier, since the reference's cost grows with their square):
// some
// sites hold no data, some have no egress cap, some clusters have no cores
// and some links are unconstrained or cut.
func randomModel(rng *rand.Rand) *model {
	S, C := 1+rng.Intn(5), 1+rng.Intn(1+rng.Intn(64))
	m := &model{
		demand: make([]float64, S),
		egress: make([]float64, S),
		comp:   make([]float64, C),
		link:   make([]float64, C*S),
	}
	for s := range m.demand {
		if rng.Intn(5) > 0 {
			m.demand[s] = 64 * rate(rng)
		}
		m.egress[s] = math.Inf(1)
		if rng.Intn(3) > 0 {
			m.egress[s] = rate(rng)
		}
	}
	for c := range m.comp {
		if rng.Intn(10) > 0 {
			m.comp[c] = rate(rng)
		}
	}
	for i := range m.link {
		switch rng.Intn(8) {
		case 0:
			m.link[i] = math.Inf(1)
		case 1:
		default:
			m.link[i] = rate(rng)
		}
	}
	return m
}

// randomStagedConfig draws a topology with up to 5 data sites and 64
// clusters behind a burst-side replica, and a demand over its sites, for
// buildModel to blend.
func randomStagedConfig(rng *rand.Rand) (hybridsim.Config, map[int]float64) {
	S, C := 1+rng.Intn(5), 1+rng.Intn(1+rng.Intn(64))
	top := hybridsim.Topology{
		SourceEgress: map[int]float64{},
		Paths:        map[[2]int]hybridsim.PathModel{},
		Stage: &hybridsim.StageModel{
			Site:    rng.Intn(S + 1),
			HitRate: 1.2*rng.Float64() - 0.1,
		},
	}
	if rng.Intn(2) > 0 {
		top.Stage.ServeRate = rate(rng)
	}
	if rng.Intn(2) > 0 {
		top.Stage.ServePerStream = rate(rng) / 8
	}
	demand := map[int]float64{}
	for s := 0; s <= S; s++ {
		if rng.Intn(5) > 0 {
			demand[s] = 64 * rate(rng)
		}
		if rng.Intn(3) > 0 {
			top.SourceEgress[s] = rate(rng)
		}
	}
	for c := 0; c < C; c++ {
		top.Clusters = append(top.Clusters, hybridsim.ClusterModel{
			Site: rng.Intn(S + 1), Cores: rng.Intn(9), CoreSpeed: 0.5 + rng.Float64(),
			RetrievalThreads: rng.Intn(5),
		})
		for s := 0; s <= S; s++ {
			if rng.Intn(6) == 0 {
				continue // no path model: unconstrained
			}
			pm := hybridsim.PathModel{PerStream: rate(rng) / 8}
			if rng.Intn(2) > 0 {
				pm.Bandwidth = rate(rng)
			}
			top.Paths[[2]int{c, s}] = pm
		}
	}
	cfg := hybridsim.Config{
		Queries:  []hybridsim.Query{{App: hybridsim.AppModel{ComputeBytesPerSec: rate(rng) / 4}}},
		Topology: top,
	}
	return cfg, demand
}

// TestHorizonMatchesBisection holds the closed form to the reference over
// 8 000 random networks, and over 2 000 random staged topologies through
// buildModel and makespan: the same horizon within 1e-9 relative, and the
// same error where no flow drains the data.
func TestHorizonMatchesBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	infeasible, worst := 0, 0.0
	check := func(name string, m *model, got float64, err error, abs float64) {
		t.Helper()
		want, refErr := m.bisect()
		switch {
		case refErr != nil:
			infeasible++
			if err == nil || !strings.Contains(err.Error(), "no feasible flow") {
				t.Errorf("%s: reference finds no flow (%v), closed form %v s, %v", name, refErr, got, err)
			}
		case err != nil:
			t.Errorf("%s: closed form fails (%v), reference %v s", name, err, want)
		case math.Abs(got-want) > 1e-9*want+abs:
			t.Errorf("%s: closed form %v s, reference %v s (rel %.2g)", name, got, want, math.Abs(got-want)/want)
		case abs == 0 && want > 0:
			worst = math.Max(worst, math.Abs(got-want)/want)
		}
	}
	for i := 0; i < 8000; i++ {
		m := randomModel(rng)
		got := m.horizon()
		var err error
		if math.IsInf(got, 1) {
			err = fmt.Errorf("no feasible flow")
		}
		check(fmt.Sprint("model ", i), m, got, err, 0)
	}
	for i := 0; i < 2000; i++ {
		cfg, demand := randomStagedConfig(rng)
		// Processing is truncated to the nanosecond.
		e, err := makespan(cfg, demand)
		check(fmt.Sprint("staged ", i), buildModel(cfg, demand), e.Processing.Seconds(), err, 1e-9)
	}
	t.Logf("%d of 10000 draws infeasible; largest relative gap on a network %.2g", infeasible, worst)
	if infeasible == 0 || infeasible > 1000 {
		t.Errorf("%d of 10000 draws infeasible: the draw misses a case or little else", infeasible)
	}
}

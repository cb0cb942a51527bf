package experiments

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/hybridsim"
)

// kmeansSweep runs the standard kmeans sweep once and shares it between the
// gate tests (the determinism test re-runs it independently).
var kmeansSweep = sync.OnceValues(func() (*ElasticSweep, error) {
	return RunElasticSweep(KMeans, costmodel.DefaultPricingCurrent(),
		DefaultElasticDeadlines, DefaultElasticBudgets)
})

// TestElasticSweepKMeansFrontier is the sweep's acceptance gate on the
// compute-bound app, where dynamic provisioning genuinely pays:
//   - no elastic point is dominated (higher cost AND higher makespan) by any
//     static candidate realized under the same injected slowdown;
//   - the unlimited-budget cells with feasible deadlines meet them, while
//     the static no-burst topology misses every deadline in the grid.
func TestElasticSweepKMeansFrontier(t *testing.T) {
	sw, err := kmeansSweep()
	if err != nil {
		t.Fatal(err)
	}
	var static0 costmodel.Candidate
	for _, c := range sw.Static {
		if c.CloudCores == 0 {
			static0 = c
		}
	}
	for _, p := range sw.Points {
		if c, dom := sw.Dominated(p); dom {
			t.Errorf("point (deadline=%v budget=%.2f): makespan %.1fs / $%.4f dominated by static %d cores (%.1fs / $%.4f)",
				p.Deadline, p.Budget, p.Makespan.Seconds(), p.Cost.Total(),
				c.CloudCores, c.Makespan.Seconds(), c.Cost.Total())
		}
		if p.Deadline >= 150*time.Second && p.Budget == 0 && !p.MetDeadline {
			t.Errorf("deadline %v (unlimited budget) missed: makespan %.1fs", p.Deadline, p.Makespan.Seconds())
		}
		if p.Deadline > 0 && static0.Makespan <= p.Deadline {
			t.Errorf("static no-burst topology meets deadline %v (%.1fs) — the scenario no longer needs elasticity",
				p.Deadline, static0.Makespan.Seconds())
		}
		if p.MetDeadline && p.ScaleUps == 0 {
			t.Errorf("deadline %v met without any scale-up — slowdown not biting", p.Deadline)
		}
	}
}

// TestElasticCostMatchesRealizedUsage is the cost-exactness gate: the
// reported instance cost (the arbiter's own episode accounting, what
// elastic_cost_dollars exports) must match an independent recomputation from
// the SIMULATOR's realized burst-worker lifetimes under the same pricing —
// two separate bookkeepers agreeing on the bill. Transfer and request costs
// must likewise equal costmodel's pricing of the realized traffic.
func TestElasticCostMatchesRealizedUsage(t *testing.T) {
	sw, err := kmeansSweep()
	if err != nil {
		t.Fatal(err)
	}
	pr := sw.Pricing
	cfg := elasticEnv(KMeans).Base
	for _, p := range sw.Points {
		var instances float64
		for _, c := range p.Clusters {
			if !c.Burst {
				continue
			}
			end := c.Drained
			if end == 0 {
				end = p.Makespan // ran to the end of the simulation
			}
			life := end - c.Launched
			q := pr.BillingQuantum
			if life <= 0 {
				life = q
			} else {
				life = ((life + q - 1) / q) * q
			}
			n := (c.Cores + pr.CoresPerInstance - 1) / pr.CoresPerInstance
			instances += float64(n) * life.Hours() * pr.InstancePerHour
		}
		if math.Abs(instances-p.Cost.Instances) > 1e-9 {
			t.Errorf("point (deadline=%v budget=%.2f): arbiter billed $%.6f instances, realized lifetimes price to $%.6f",
				p.Deadline, p.Budget, p.Cost.Instances, instances)
		}
		// Transfer and requests: price the realized footprint afresh.
		want, err := pr.Price(costmodel.Meter(cfg, &hybridsim.Result{Clusters: p.Clusters}, siteCloud))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(want.Transfer-p.Cost.Transfer) > 1e-9 || math.Abs(want.Requests-p.Cost.Requests) > 1e-9 {
			t.Errorf("point (deadline=%v budget=%.2f): transfer/requests $%.6f/$%.6f, repriced $%.6f/$%.6f",
				p.Deadline, p.Budget, p.Cost.Transfer, p.Cost.Requests, want.Transfer, want.Requests)
		}
	}
}

// TestElasticSweepDeterministic re-runs the whole sweep and demands
// byte-identical human and CSV renderings — virtual clock, fixed seeds, and
// a pure-policy arbiter leave nothing to drift.
func TestElasticSweepDeterministic(t *testing.T) {
	sw1, err := kmeansSweep()
	if err != nil {
		t.Fatal(err)
	}
	sw2, err := RunElasticSweep(KMeans, costmodel.DefaultPricingCurrent(),
		DefaultElasticDeadlines, DefaultElasticBudgets)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := FormatElasticSweep(sw1), FormatElasticSweep(sw2); a != b {
		t.Errorf("sweep rendering differs across reruns:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if a, b := ElasticSweepCSV(sw1), ElasticSweepCSV(sw2); a != b {
		t.Errorf("sweep CSV differs across reruns:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestElasticSweepMatchesGolden pins the single-query sweep — what
// `cloudburst elastic` prints — byte for byte. The plain and the staged ×3
// knn/kmeans goldens were written by the one-query Controller the arbiter
// replaced (only the four reason phrases the two worded differently were
// substituted), so they are the N=1 parity proof: every table cell and every
// decision's time, action, delta, fleet, estimate and cost. The staged ×3
// pagerank golden is the arbiter's own output: it differs from the
// Controller's only in releasing the idle fleet during the final global
// reduction instead of billing it to the end.
func TestElasticSweepMatchesGolden(t *testing.T) {
	staged3 := ElasticOptions{Staged: true, Iterations: 3, LaunchDelay: 20 * time.Second}
	rows := []struct {
		golden string
		apps   []App
		opts   ElasticOptions
	}{
		{"elastic_sweep.golden", []App{KNN, KMeans, PageRank}, ElasticOptions{}},
		{"elastic_sweep_staged3.golden", []App{KNN, KMeans}, staged3},
		{"elastic_sweep_staged3_pagerank.golden", []App{PageRank}, staged3},
	}
	for _, row := range rows {
		t.Run(row.golden, func(t *testing.T) {
			if row.opts.Staged && testing.Short() {
				t.Skip("staged ×3 sweeps skipped under -short")
			}
			want, err := os.ReadFile(filepath.Join("testdata", row.golden))
			if err != nil {
				t.Fatal(err)
			}
			var got strings.Builder
			for _, app := range row.apps {
				sw, err := RunElasticSweepWith(app, costmodel.DefaultPricingCurrent(),
					DefaultElasticDeadlines, DefaultElasticBudgets, row.opts)
				if err != nil {
					t.Fatal(err)
				}
				got.WriteString(FormatElasticSweep(sw))
				got.WriteString("\n")
			}
			diffLines(t, got.String(), string(want))
		})
	}
}

// TestElasticSlowdownSelection pins the per-app perturbation choice: the
// retrieval-bound app degrades at the source, the compute-bound apps at the
// cluster.
func TestElasticSlowdownSelection(t *testing.T) {
	if s := elasticSlowdown(KNN); !s.Source || s.Site != siteLocal {
		t.Errorf("knn slowdown = %+v, want source degradation at the local site", s)
	}
	for _, app := range []App{KMeans, PageRank} {
		if s := elasticSlowdown(app); s.Source || s.Cluster != 0 {
			t.Errorf("%s slowdown = %+v, want compute degradation on cluster 0", app, s)
		}
	}
}

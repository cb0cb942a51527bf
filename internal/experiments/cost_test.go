package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/hybridsim"
)

func TestRunCostTable(t *testing.T) {
	rows, err := RunCostTable(KNN, costmodel.DefaultPricing2011())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Envs) {
		t.Fatalf("rows = %d, want %d", len(rows), len(Envs))
	}
	byEnv := map[Env]CostRow{}
	for _, r := range rows {
		byEnv[r.Env] = r
	}
	// env-local uses no cloud resources: zero bill.
	if c := byEnv[EnvLocal].Cost.Total(); c != 0 {
		t.Errorf("env-local cost = $%.4f, want 0", c)
	}
	// env-cloud pays for 32 cores; hybrids for 16 — cloud must cost more.
	if byEnv[EnvCloud].Cost.Total() <= byEnv[Env5050].Cost.Total() {
		t.Errorf("env-cloud ($%.4f) not above env-50/50 ($%.4f)",
			byEnv[EnvCloud].Cost.Total(), byEnv[Env5050].Cost.Total())
	}
	// Skew pushes more bytes across the cloud boundary: transfer grows.
	if byEnv[Env1783].Usage.BytesOut <= byEnv[Env3367].Usage.BytesOut {
		t.Errorf("17/83 egress (%d) not above 33/67 (%d)",
			byEnv[Env1783].Usage.BytesOut, byEnv[Env3367].Usage.BytesOut)
	}
	out := FormatCostTable(rows)
	if !strings.Contains(out, "total $") || !strings.Contains(out, "17/83") {
		t.Errorf("FormatCostTable = %q", out)
	}
}

// TestMeterOverPaperCells runs the one meter over the paper's 15 app × env
// cells. Its requests (bytes ÷ the mean chunk) must equal the job-count
// rule the cost table once used: every job a cluster ran off the cloud
// site — its own local jobs in the cloud, stolen ones outside — is one GET.
func TestMeterOverPaperCells(t *testing.T) {
	for _, app := range Apps {
		for _, env := range Envs {
			cfg := Config(app, env, SimOptions{})
			res, err := hybridsim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var want int64
			for _, c := range res.Clusters {
				if _, ok := c.BytesBySite[siteCloud]; !ok {
					continue
				}
				if c.Site == siteCloud {
					want += int64(c.Jobs.Local)
				} else {
					want += int64(c.Jobs.Stolen)
				}
			}
			if u := costmodel.Meter(cfg, res, siteCloud); u.Requests != want {
				t.Errorf("%s/%s: Requests = %d, job-count rule says %d", app, env, u.Requests, want)
			}
		}
	}
}

// TestMeterHeadInCloud: in env-cloud the head sits in the cloud cluster, so
// its reduction object never crosses the boundary and no byte leaves the
// cloud. Charging it anyway reads $5.4710 for pagerank instead of $5.4410.
func TestMeterHeadInCloud(t *testing.T) {
	cfg := Config(PageRank, EnvCloud, SimOptions{})
	res, err := hybridsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	u := costmodel.Meter(cfg, res, siteCloud)
	if u.BytesOut != 0 {
		t.Errorf("BytesOut = %d, want 0 with the head in the cloud", u.BytesOut)
	}
	cost, err := costmodel.DefaultPricing2011().Price(u)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%.4f", cost.Total()); got != "5.4410" {
		t.Errorf("pagerank/env-cloud bill = $%s, want $5.4410", got)
	}
}

func TestRunProvisioning(t *testing.T) {
	// A generous deadline is satisfiable by the smallest option; the
	// planner must then choose it (cheapest).
	plan, err := RunProvisioning(KMeans, costmodel.DefaultPricing2011(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Chosen == nil {
		t.Fatal("no plan for a one-hour deadline")
	}
	if plan.Chosen.CloudCores != 4 {
		t.Errorf("chose %d cores for a lax deadline, want the cheapest (4)", plan.Chosen.CloudCores)
	}
	// An impossible deadline yields no plan but a full candidate table.
	plan, err = RunProvisioning(KMeans, costmodel.DefaultPricing2011(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Chosen != nil {
		t.Errorf("chose %+v for an impossible deadline", plan.Chosen)
	}
	if len(plan.Candidates) == 0 {
		t.Error("no candidates evaluated")
	}
}

func TestEstimateValidationRows(t *testing.T) {
	rows, err := RunEstimateValidation(KNN)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Envs) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if ratio := r.Ratio(); ratio < 0.97 || ratio > 1.6 {
			t.Errorf("%s: sim/estimate ratio = %.2f", r.Label, ratio)
		}
	}
	if out := FormatEstimateTable(rows); !strings.Contains(out, "analytic") {
		t.Errorf("FormatEstimateTable = %q", out)
	}
}

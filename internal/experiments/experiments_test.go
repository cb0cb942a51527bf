package experiments

import (
	"strings"
	"testing"

	"repro/internal/jobs"
)

func TestDatasetGeometry(t *testing.T) {
	ix := DatasetIndex()
	if got := ix.NumChunks(); got != 960 {
		t.Errorf("chunks = %d, want 960 (the paper's job count)", got)
	}
	if got := len(ix.Files); got != 32 {
		t.Errorf("files = %d, want 32", got)
	}
	gb := float64(ix.TotalBytes()) / (1 << 30)
	if gb < 11.5 || gb > 12.5 {
		t.Errorf("dataset = %.2f GiB, want ≈12", gb)
	}
}

func TestEnvLocalFractions(t *testing.T) {
	for _, tc := range []struct {
		env  Env
		want float64
	}{
		{EnvLocal, 1}, {EnvCloud, 0}, {Env5050, 0.5},
	} {
		if got := tc.env.LocalFraction(); got != tc.want {
			t.Errorf("%s fraction = %v, want %v", tc.env, got, tc.want)
		}
	}
	if f := Env3367.LocalFraction(); f < 0.3 || f > 0.37 {
		t.Errorf("33/67 fraction = %v", f)
	}
	if f := Env1783.LocalFraction(); f < 0.14 || f > 0.2 {
		t.Errorf("17/83 fraction = %v", f)
	}
}

func mustFig3(t *testing.T, app App) *Fig3Result {
	t.Helper()
	r, err := RunFig3(app)
	if err != nil {
		t.Fatalf("RunFig3(%s): %v", app, err)
	}
	return r
}

// TestKNNShapes checks the paper's Figure-3(a)/Table-II anchors for knn:
// retrieval dominates processing, slowdown grows monotonically with skew,
// and env-17/83 lands in the paper's heavy-slowdown regime (≈46%).
func TestKNNShapes(t *testing.T) {
	r := mustFig3(t, KNN)
	base := r.Baseline()
	c := base.Sim.Clusters[0]
	if c.Breakdown.Retrieval <= c.Breakdown.Processing {
		t.Errorf("knn env-local should be retrieval-bound: %v", c.Breakdown)
	}
	var prev float64
	for _, env := range HybridEnvs {
		s := r.Slowdown(env)
		if s < prev-0.02 {
			t.Errorf("knn slowdown not monotone with skew: %s=%v after %v", env, s, prev)
		}
		prev = s
	}
	if s := r.Slowdown(Env5050); s < -0.02 || s > 0.10 {
		t.Errorf("knn 50/50 slowdown = %.1f%%, want small (paper 1.7%%)", 100*s)
	}
	if s := r.Slowdown(Env1783); s < 0.25 || s > 0.60 {
		t.Errorf("knn 17/83 slowdown = %.1f%%, want heavy (paper 45.9%%)", 100*s)
	}
}

// TestKMeansShapes: compute-bound, tiny hybrid penalty (paper: the worst
// case is far below knn's; sync 1-4.1%).
func TestKMeansShapes(t *testing.T) {
	r := mustFig3(t, KMeans)
	base := r.Baseline().Sim.Clusters[0]
	if base.Breakdown.Processing <= base.Breakdown.Retrieval {
		t.Errorf("kmeans env-local should be compute-bound: %v", base.Breakdown)
	}
	for _, env := range HybridEnvs {
		if s := r.Slowdown(env); s > 0.12 {
			t.Errorf("kmeans %s slowdown = %.1f%%, want ≤12%%", env, 100*s)
		}
		cell := r.Cell(env)
		for _, c := range cell.Sim.Clusters {
			syncPct := c.Breakdown.Sync.Seconds() / cell.Sim.Total.Seconds()
			if syncPct > 0.08 {
				t.Errorf("kmeans %s %s sync = %.1f%%, want small", env, c.Name, 100*syncPct)
			}
		}
	}
	// kmeans must beat knn's skew penalty decisively (the paper's central
	// contrast: compute-intensive apps exploit bursting almost for free).
	knn := mustFig3(t, KNN)
	if r.Slowdown(Env1783) > knn.Slowdown(Env1783)/2 {
		t.Errorf("kmeans 17/83 (%.1f%%) not clearly below knn (%.1f%%)",
			100*r.Slowdown(Env1783), 100*knn.Slowdown(Env1783))
	}
}

// TestPageRankShapes: the large reduction object makes hybrid sync heavy
// (paper: 6.8-12.1% of total).
func TestPageRankShapes(t *testing.T) {
	r := mustFig3(t, PageRank)
	for _, env := range HybridEnvs {
		cell := r.Cell(env)
		var worstSync float64
		for _, c := range cell.Sim.Clusters {
			if s := c.Breakdown.Sync.Seconds(); s > worstSync {
				worstSync = s
			}
		}
		pct := worstSync / cell.Sim.Total.Seconds()
		if pct < 0.03 || pct > 0.25 {
			t.Errorf("pagerank %s sync share = %.1f%%, want 3-25%% (paper 6.8-12.1%%)", env, 100*pct)
		}
	}
	// The baselines avoid the inter-cluster robj exchange entirely.
	base := r.Baseline().Sim.Clusters[0]
	if base.Breakdown.Sync.Seconds() > 2 {
		t.Errorf("pagerank env-local sync = %v, should avoid robj WAN transfer", base.Breakdown.Sync)
	}
}

func TestTable1Conservation(t *testing.T) {
	r := mustFig3(t, KNN)
	for _, env := range HybridEnvs {
		cell := r.Cell(env)
		total, stolen := 0, 0
		for _, c := range cell.Sim.Clusters {
			total += c.Jobs.Total()
			stolen += c.Jobs.Stolen
		}
		if total != 960 {
			t.Errorf("%s processed %d jobs, want 960", env, total)
		}
		if env != Env5050 && stolen == 0 {
			t.Errorf("%s: no stolen jobs despite skew", env)
		}
	}
	// More skew ⇒ more stealing.
	s33 := stolenCount(r.Cell(Env3367))
	s17 := stolenCount(r.Cell(Env1783))
	if s17 <= s33 {
		t.Errorf("stolen jobs: 17/83=%d not above 33/67=%d", s17, s33)
	}
}

func stolenCount(cell *EnvResult) int {
	n := 0
	for _, c := range cell.Sim.Clusters {
		n += c.Jobs.Stolen
	}
	return n
}

func TestTable2Rows(t *testing.T) {
	r := mustFig3(t, KNN)
	rows := r.Table2()
	if len(rows) != len(HybridEnvs) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.GlobalReduction < 0 || row.IdleTime < 0 || row.RetrievalExtra < 0 {
			t.Errorf("%s: negative component %+v", row.Env, row)
		}
	}
	if rows[2].TotalSlowdown <= rows[0].TotalSlowdown {
		t.Errorf("17/83 slowdown %v not above 50/50 %v", rows[2].TotalSlowdown, rows[0].TotalSlowdown)
	}
}

func TestFig4Shapes(t *testing.T) {
	knn, err := RunFig4(KNN)
	if err != nil {
		t.Fatal(err)
	}
	km, err := RunFig4(KMeans)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := RunFig4(PageRank)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Fig4Result{knn, km, pr} {
		// Totals strictly decrease as cores double.
		for i := 1; i < len(r.Points); i++ {
			if r.Points[i].Sim.Total >= r.Points[i-1].Sim.Total {
				t.Errorf("%s: no speedup at (%d,%d)", r.App, r.Points[i].M, r.Points[i].M)
			}
		}
		for _, e := range r.Efficiency() {
			if e < 0.4 || e > 1.05 {
				t.Errorf("%s efficiency %v out of range", r.App, e)
			}
		}
	}
	// kmeans scales best at the last doubling (compute-bound).
	kmEff := km.Efficiency()
	knnEff := knn.Efficiency()
	prEff := pr.Efficiency()
	last := len(kmEff) - 1
	if kmEff[last] <= knnEff[last] || kmEff[last] <= prEff[last] {
		t.Errorf("kmeans last-doubling efficiency %.2f not best (knn %.2f, pagerank %.2f)",
			kmEff[last], knnEff[last], prEff[last])
	}
	// pagerank's sync share grows toward (32,32) (fixed robj exchange).
	prSync := pr.SyncOverheadPct()
	if prSync[len(prSync)-1] <= prSync[0] {
		t.Errorf("pagerank sync share not growing: %v", prSync)
	}
}

func TestHeadlineRanges(t *testing.T) {
	h, fig3s, fig4s, err := RunHeadline()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig3s) != 3 || len(fig4s) != 3 {
		t.Fatalf("results: %d fig3, %d fig4", len(fig3s), len(fig4s))
	}
	if h.AvgSlowdownPct < 8 || h.AvgSlowdownPct > 28 {
		t.Errorf("avg slowdown = %.2f%%, want near the paper's 15.55%%", h.AvgSlowdownPct)
	}
	if h.AvgEfficiencyPct < 75 || h.AvgEfficiencyPct > 102 {
		t.Errorf("avg efficiency = %.1f%%, want near the paper's 81%%", h.AvgEfficiencyPct)
	}
}

func TestFig1Shapes(t *testing.T) {
	cfg := DefaultFig1Config()
	cfg.Points = 20_000
	cfg.Edges = 40_000
	cfg.Nodes = 500
	r, err := RunFig1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 9 { // 3 apps × 3 structures
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byKey := map[string]Fig1Row{}
	for _, row := range r.Rows {
		byKey[string(row.App)+"/"+row.Structure] = row
	}
	for _, app := range Apps {
		gr := byKey[string(app)+"/generalized-reduction"]
		mr := byKey[string(app)+"/map-reduce"]
		mc := byKey[string(app)+"/mr+combine"]
		if gr.PairsEmitted != 0 || gr.PeakBuffered != 0 {
			t.Errorf("%s: GR has intermediate pairs: %+v", app, gr)
		}
		if mr.PairsEmitted == 0 {
			t.Errorf("%s: MR emitted no pairs", app)
		}
		// Combine reduces shuffle volume but not generation.
		if mc.PairsShuffled >= mr.PairsShuffled {
			t.Errorf("%s: combine did not shrink shuffle (%d vs %d)", app, mc.PairsShuffled, mr.PairsShuffled)
		}
		if mc.PairsEmitted != mr.PairsEmitted {
			t.Errorf("%s: combine changed emission (%d vs %d)", app, mc.PairsEmitted, mr.PairsEmitted)
		}
	}
	if !strings.Contains(r.Format(), "generalized-reduction") {
		t.Error("Format missing structures")
	}
}

func TestAblationShapes(t *testing.T) {
	rows, err := RunAblationRows()
	if err != nil {
		t.Fatal(err)
	}
	byStudy := map[string][]AblationRow{}
	for _, r := range rows {
		byStudy[r.Study] = append(byStudy[r.Study], r)
	}
	// Scattered assignment (seeky reads) must be slower than consecutive.
	cons := byStudy["consecutive-jobs"]
	if len(cons) != 2 || cons[1].TotalSec <= cons[0].TotalSec {
		t.Errorf("scattered not slower: %+v", cons)
	}
	// Fewer retrieval streams must be slower for I/O-bound apps.
	for _, r := range byStudy["retrieval-threads"] {
		if r.DeltaPct < 0 && r.Setting != "1 stream/core (paper)" {
			t.Errorf("fewer streams got faster: %+v", r)
		}
	}
	out, err := RunAblations()
	if err != nil || !strings.Contains(out, "consecutive") {
		t.Errorf("RunAblations: %v, %q", err, out)
	}
}

func TestFormatters(t *testing.T) {
	r := mustFig3(t, KNN)
	if s := r.FormatFig3(); !strings.Contains(s, "env") || !strings.Contains(s, "retrieval") {
		t.Errorf("FormatFig3 = %q", s)
	}
	if s := r.FormatTable1(); !strings.Contains(s, "stolen") {
		t.Errorf("FormatTable1 = %q", s)
	}
	if s := r.FormatTable2(); !strings.Contains(s, "global red.") {
		t.Errorf("FormatTable2 = %q", s)
	}
	f4, err := RunFig4(KNN)
	if err != nil {
		t.Fatal(err)
	}
	if s := f4.FormatFig4(); !strings.Contains(s, "efficiency") {
		t.Errorf("FormatFig4 = %q", s)
	}
}

func TestScaleConfigPlacement(t *testing.T) {
	cfg := ScaleConfig(KNN, 8, SimOptions{})
	q := cfg.Queries[0]
	for fi, site := range q.Placement {
		if site != siteCloud {
			t.Errorf("file %d placed at site %d, want all in S3", fi, site)
		}
	}
	for _, c := range cfg.Topology.Clusters {
		if c.Cores != 8 {
			t.Errorf("cluster %s cores = %d, want 8", c.Name, c.Cores)
		}
	}
	if _, err := jobs.NewPool(q.Index, q.Placement, jobs.Options{}); err != nil {
		t.Errorf("placement invalid: %v", err)
	}
}

// TestStaticPartitionAblation asserts the paper's central load-balancing
// claim: without the pooling+stealing mechanism, skewed data placement
// translates directly into compute imbalance and a much slower run.
func TestStaticPartitionAblation(t *testing.T) {
	rows, err := RunAblationRows()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range rows {
		if row.Study == "dynamic-balancing" && row.App == KMeans && row.Setting == "static partition" {
			found = true
			if row.DeltaPct < 20 {
				t.Errorf("static partition only %.1f%% slower for kmeans 17/83; pooling should win big", row.DeltaPct)
			}
		}
	}
	if !found {
		t.Error("dynamic-balancing study missing")
	}
}

package hybridsim

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
)

// runTraced executes cfg with a fresh enabled Obs and returns both.
func runTraced(t *testing.T, cfg Config) (*Result, *obs.Obs) {
	t.Helper()
	o := obs.New(nil)
	o.Tracer.Enable()
	cfg.Obs = o
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, o
}

// TestTraceDeterminism is the virtual-clock plumbing guard: two simulator
// runs with the same seed must serialize to byte-identical trace-event
// JSON. Any wall-clock leak into the instrumentation breaks this.
func TestTraceDeterminism(t *testing.T) {
	render := func() []byte {
		_, o := runTraced(t, testConfig(t, 8, 4, 0.33))
		var buf bytes.Buffer
		if err := o.Tracer.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		// Find the first divergence for a useful failure message.
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		i := 0
		for i < n && a[i] == b[i] {
			i++
		}
		lo := i - 60
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("traces differ at byte %d:\n  a: …%s…\n  b: …%s…", i, a[lo:min(i+60, len(a))], b[lo:min(i+60, len(b))])
	}
}

// TestTraceDoesNotPerturbSimulation: attaching a tracer must not change
// the simulated schedule — same makespan, breakdowns, and job accounting
// as an untraced run.
func TestTraceDoesNotPerturbSimulation(t *testing.T) {
	plain, err := Run(testConfig(t, 8, 4, 0.33))
	if err != nil {
		t.Fatal(err)
	}
	traced, _ := runTraced(t, testConfig(t, 8, 4, 0.33))
	if plain.Total != traced.Total {
		t.Errorf("traced run changed makespan: %v vs %v", traced.Total, plain.Total)
	}
	for i := range plain.Clusters {
		if plain.Clusters[i].Breakdown != traced.Clusters[i].Breakdown {
			t.Errorf("cluster %d breakdown changed: %v vs %v", i,
				traced.Clusters[i].Breakdown, plain.Clusters[i].Breakdown)
		}
		if plain.Clusters[i].Jobs != traced.Clusters[i].Jobs {
			t.Errorf("cluster %d jobs changed: %+v vs %+v", i,
				traced.Clusters[i].Jobs, plain.Clusters[i].Jobs)
		}
	}
}

// TestTracePhaseSumsMatchBreakdown: the per-cluster phase-summary spans in
// the trace must sum to the run's stats.Breakdown (the acceptance check
// behind `cloudburst trace`), and the fine-grained processing spans must
// account for exactly the per-core processing time.
func TestTracePhaseSumsMatchBreakdown(t *testing.T) {
	res, o := runTraced(t, testConfig(t, 8, 4, 0.33))

	totals := o.Tracer.PhaseTotals()
	for i, c := range res.Clusters {
		got, want := totals[i+1], c.Breakdown
		for name, wantD := range map[string]time.Duration{
			"processing": want.Processing,
			"retrieval":  want.Retrieval,
			"sync":       want.Sync,
		} {
			d := got[name]
			if wantD == 0 && d == 0 {
				continue
			}
			if relErr(d, wantD) > 0.01 {
				t.Errorf("cluster %d phase %s: trace=%v breakdown=%v (>1%% apart)", i, name, d, wantD)
			}
		}
	}

	// Per-job processing spans sum to cores × Breakdown.Processing exactly
	// (the simulator defines Processing as average per-core busy time).
	perPid := make(map[int]time.Duration)
	var retrievalSpans, processingSpans int
	for _, ev := range o.Tracer.Events() {
		if ev.Phase != 'X' {
			continue
		}
		switch ev.Cat {
		case "processing":
			perPid[ev.PID] += ev.Dur
			processingSpans++
		case "retrieval":
			retrievalSpans++
		}
	}
	totalJobs := 0
	for i, c := range res.Clusters {
		totalJobs += c.Jobs.Total()
		want := c.Breakdown.Processing * time.Duration(c.Cores)
		if got := perPid[i+1]; relErr(got, want) > 1e-9 {
			t.Errorf("cluster %d processing spans sum to %v, want %v", i, got, want)
		}
	}
	if processingSpans != totalJobs || retrievalSpans != totalJobs {
		t.Errorf("spans: %d processing, %d retrieval; want %d each (one per job)",
			processingSpans, retrievalSpans, totalJobs)
	}
}

func relErr(a, b time.Duration) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(float64(a-b)) / math.Abs(float64(b))
}

// TestTraceJSONStructure: the export is a loadable Chrome trace with
// named processes and microsecond timestamps on virtual time.
func TestTraceJSONStructure(t *testing.T) {
	res, o := runTraced(t, testConfig(t, 4, 4, 0.5))
	var buf bytes.Buffer
	if err := o.Tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	var sawHead, sawCluster, sawFinish bool
	maxTS := 0.0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			if ev.PID == 0 {
				sawHead = true
			} else {
				sawCluster = true
			}
		}
		if ev.Name == "finished" {
			sawFinish = true
		}
		if ts := ev.TS + ev.Dur; ts > maxTS {
			maxTS = ts
		}
	}
	if !sawHead || !sawCluster || !sawFinish {
		t.Errorf("missing metadata or finish marker (head=%v cluster=%v finish=%v)",
			sawHead, sawCluster, sawFinish)
	}
	// No event may extend past the virtual makespan (µs).
	if total := float64(res.Total) / 1e3; maxTS > total+1e-6 {
		t.Errorf("event at %vµs beyond makespan %vµs", maxTS, total)
	}
}

// TestSimMetrics: the registry carries the run's job accounting and
// per-site byte counters.
func TestSimMetrics(t *testing.T) {
	res, o := runTraced(t, testConfig(t, 8, 4, 0.33))
	var local, stolen int64
	var bytesWant int64
	for _, c := range res.Clusters {
		local += int64(c.Jobs.Local)
		stolen += int64(c.Jobs.Stolen)
		for _, n := range c.BytesBySite {
			bytesWant += n
		}
	}
	reg := o.Registry
	if got := reg.Counter("sim_jobs_local_total").Value(); got != local {
		t.Errorf("sim_jobs_local_total = %d, want %d", got, local)
	}
	if got := reg.Counter("sim_jobs_stolen_total").Value(); got != stolen {
		t.Errorf("sim_jobs_stolen_total = %d, want %d", got, stolen)
	}
	gotBytes := reg.Counter("sim_retrieved_bytes_site0").Value() + reg.Counter("sim_retrieved_bytes_site1").Value()
	if gotBytes != bytesWant {
		t.Errorf("per-site byte counters = %d, want %d", gotBytes, bytesWant)
	}
	if n := reg.Histogram("sim_retrieval_seconds", nil).Count(); n != local+stolen {
		t.Errorf("retrieval histogram count = %d, want %d", n, local+stolen)
	}
}

// multiTracedConfig is a small 2-cluster, 2-query experiment with tracing
// attached.
func multiTracedConfig(t *testing.T) Config {
	t.Helper()
	cfg := Config{Topology: multiTopology(), Seed: 3}
	for _, sp := range []struct {
		name  string
		files int
		rate  float64
	}{
		{"histogram", 4, 16 << 20},
		{"knn", 3, 8 << 20},
	} {
		ix := multiIndex(t, sp.name, sp.files, 2)
		cfg.Queries = append(cfg.Queries, Query{
			Name:      sp.name,
			App:       multiApp(sp.name, sp.rate),
			Index:     ix,
			Placement: jobs.SplitByFraction(sp.files, 0.5, 0, 1),
		})
	}
	return cfg
}

// TestMultiTraceMergedView: the multi-query simulator renders one merged
// trace — head grants on pid 0, every cluster on its own pid — where each
// processing span's trace id matches a head-side grant span of the same
// query, and the whole rendering is replay-deterministic.
func TestMultiTraceMergedView(t *testing.T) {
	render := func() ([]byte, *Result) {
		cfg := multiTracedConfig(t)
		o := obs.New(nil)
		o.Tracer.Enable()
		cfg.Obs = o
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := o.Tracer.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), res
	}
	raw, res := render()

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}

	// Collect the trace ids the head granted under, per query, and check
	// every master-side span cites one for its own query.
	grantIDs := map[float64]float64{} // trace id → query
	nGrant := 0
	for _, ev := range doc.TraceEvents {
		if ev.PID == 0 && ev.Name == "grant" {
			nGrant++
			tid, ok1 := ev.Args["trace"].(float64)
			q, ok2 := ev.Args["query"].(float64)
			if !ok1 || !ok2 {
				t.Fatalf("grant span without trace/query args: %+v", ev.Args)
			}
			if want := q + 1; tid != want {
				t.Errorf("grant trace id = %v for query %v, want %v", tid, q, want)
			}
			grantIDs[tid] = q
		}
	}
	if nGrant == 0 {
		t.Fatal("no head-side grant spans in merged trace")
	}
	nProc := 0
	for _, ev := range doc.TraceEvents {
		if ev.Cat != "processing" && ev.Cat != "retrieval" {
			continue
		}
		if ev.PID == 0 {
			t.Errorf("%s span on the head pid", ev.Cat)
		}
		nProc++
		tid, ok := ev.Args["trace"].(float64)
		if !ok {
			t.Fatalf("%s span without trace arg: %+v", ev.Cat, ev.Args)
		}
		q, ok := grantIDs[tid]
		if !ok {
			t.Errorf("%s span cites trace id %v that no grant carries", ev.Cat, tid)
		} else if evq, _ := ev.Args["query"].(float64); evq != q {
			t.Errorf("%s span query %v under trace id %v granted to query %v", ev.Cat, evq, tid, q)
		}
	}
	// One processing and one retrieval span per executed job (copies
	// included), across both queries.
	committed := 0
	for _, qr := range res.Queries {
		for _, acct := range qr.Jobs {
			committed += acct.Total()
		}
	}
	if nProc < 2*committed {
		t.Errorf("%d retrieval+processing spans for %d committed jobs", nProc, committed)
	}

	if again, _ := render(); !bytes.Equal(raw, again) {
		t.Error("merged multi-query trace is not byte-identical across replays")
	}
}

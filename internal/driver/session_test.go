package driver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/chunk"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/workload"
)

// mixedSteps builds one Step per application over dim-2 points, with fresh
// reducers per call (reducers accumulate state and must not be shared
// between runs). The returned encoders re-encode a final object for
// byte-level comparison.
func mixedSteps(t *testing.T) ([]Step, []func(core.Object) []byte) {
	t.Helper()
	var steps []Step
	var encs []func(core.Object) []byte

	hp := apps.HistogramParams{Bins: 8, Dim: 2}
	hparams, err := apps.EncodeHistogramParams(hp)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := apps.NewHistogramReducer(hp)
	if err != nil {
		t.Fatal(err)
	}
	steps = append(steps, Step{App: apps.HistogramReducerName, Params: hparams, Reducer: hr})
	encs = append(encs, func(o core.Object) []byte {
		b, err := hr.Encode(o)
		if err != nil {
			t.Fatal(err)
		}
		return b
	})

	kp := apps.KNNParams{K: 10, Dim: 2, Query: []float64{0.5, 0.5}}
	kparams, err := apps.EncodeKNNParams(kp)
	if err != nil {
		t.Fatal(err)
	}
	kr, err := apps.NewKNNReducer(kp)
	if err != nil {
		t.Fatal(err)
	}
	steps = append(steps, Step{App: apps.KNNReducerName, Params: kparams, Reducer: kr})
	encs = append(encs, func(o core.Object) []byte {
		b, err := kr.Encode(o)
		if err != nil {
			t.Fatal(err)
		}
		return b
	})

	mp := apps.KMeansParams{K: 3, Dim: 2, Centers: [][]float64{{0.2, 0.2}, {0.5, 0.5}, {0.8, 0.8}}}
	mparams, err := apps.EncodeKMeansParams(mp)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := apps.NewKMeansReducer(mp)
	if err != nil {
		t.Fatal(err)
	}
	steps = append(steps, Step{App: apps.KMeansReducerName, Params: mparams, Reducer: mr})
	encs = append(encs, func(o core.Object) []byte {
		b, err := mr.Encode(o)
		if err != nil {
			t.Fatal(err)
		}
		return b
	})
	return steps, encs
}

// TestConcurrentMixedQueriesBitIdentical is the tentpole acceptance drill:
// three queries of three different applications run concurrently over ONE
// live session — one head, one registration and wire session per cluster —
// and each produces the same result as its own sequential RunOnce over the
// same deployment, with per-query reports and metrics fully isolated.
//
// Histogram (integer counts) and kNN (min-k selection) are
// partition-invariant, so their results are compared byte-for-byte. K-means
// accumulates float sums, whose bit pattern legitimately depends on fold
// order even between two sequential runs; its counts are compared exactly
// and its sums within floating-point slack.
func TestConcurrentMixedQueriesBitIdentical(t *testing.T) {
	gen := workload.ClusteredPoints{Seed: 42, Dim: 2, K: 3, Spread: 0.05}
	d, _ := buildPointDeployment(t, gen, 1500)

	// Sequential reference: one query at a time, each over a fresh session.
	seqSteps, seqEncs := mixedSteps(t)
	refs := make([][]byte, len(seqSteps))
	refObjs := make([]core.Object, len(seqSteps))
	for i, s := range seqSteps {
		obj, reports, err := d.RunOnce(s)
		if err != nil {
			t.Fatalf("sequential %s: %v", s.App, err)
		}
		if len(reports) != 2 {
			t.Fatalf("sequential %s reports = %d, want 2", s.App, len(reports))
		}
		refs[i] = seqEncs[i](obj)
		refObjs[i] = obj
	}

	// Concurrent: all three admitted into one session, racing for the same
	// two clusters under fair share.
	d.Obs = obs.New(nil)
	sess, err := NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	conSteps, conEncs := mixedSteps(t)
	queries := make([]*Query, len(conSteps))
	for i, s := range conSteps {
		if queries[i], err = sess.Submit(s); err != nil {
			t.Fatalf("submit %s: %v", s.App, err)
		}
	}
	var wg sync.WaitGroup
	objs := make([]core.Object, len(queries))
	allReports := make([][]head.ClusterReport, len(queries))
	errs := make([]error, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q *Query) {
			defer wg.Done()
			objs[i], allReports[i], errs[i] = q.Wait(context.Background())
		}(i, q)
	}
	wg.Wait()
	for i, s := range conSteps {
		if errs[i] != nil {
			t.Fatalf("concurrent %s: %v", s.App, errs[i])
		}
		// Per-query stats isolation: every query saw both clusters and
		// exactly the full job count — no cross-query bleed.
		if len(allReports[i]) != 2 {
			t.Errorf("%s reports = %d, want 2", s.App, len(allReports[i]))
		}
		jobsTotal := 0
		for _, r := range allReports[i] {
			jobsTotal += r.Jobs.Total()
		}
		if jobsTotal != d.Index.NumChunks() {
			t.Errorf("%s processed %d jobs, want %d", s.App, jobsTotal, d.Index.NumChunks())
		}
	}

	// Bit-identity for the partition-invariant apps.
	for _, i := range []int{0, 1} {
		if got := conEncs[i](objs[i]); !bytes.Equal(got, refs[i]) {
			t.Errorf("%s: concurrent result differs from sequential (%d vs %d bytes)",
				conSteps[i].App, len(got), len(refs[i]))
		}
	}
	// K-means: exact counts, near-exact sums.
	ref := refObjs[2].(*apps.KMeansObject)
	got := objs[2].(*apps.KMeansObject)
	for c := range ref.Counts {
		if got.Counts[c] != ref.Counts[c] {
			t.Errorf("kmeans center %d count = %d, want %d", c, got.Counts[c], ref.Counts[c])
		}
		for j := range ref.Sums[c] {
			if diff := math.Abs(got.Sums[c][j] - ref.Sums[c][j]); diff > 1e-9*math.Abs(ref.Sums[c][j]) {
				t.Errorf("kmeans sum[%d][%d] = %v, want %v", c, j, got.Sums[c][j], ref.Sums[c][j])
			}
		}
	}

	// Per-query metrics isolation: each query's own counters carry exactly
	// its jobs and its two cluster results.
	snap := d.Obs.Registry.Snapshot()
	for i := range queries {
		id := queries[i].ID()
		if n := snap[fmt.Sprintf(`head_query_jobs_granted_total{query="%d"}`, id)]; n != int64(d.Index.NumChunks()) {
			t.Errorf("query %d granted metric = %d, want %d", id, n, d.Index.NumChunks())
		}
		if n := snap[fmt.Sprintf(`head_query_results_total{query="%d"}`, id)]; n != 2 {
			t.Errorf("query %d results metric = %d, want 2", id, n)
		}
	}
	if err := sess.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// slowSource delays every read, giving cancellation something to interrupt.
type slowSource struct {
	inner chunk.Source
	delay time.Duration
}

func (s slowSource) ReadChunk(ref chunk.Ref) ([]byte, error) {
	time.Sleep(s.delay)
	return s.inner.ReadChunk(ref)
}

// TestIterateCancelMidRound: Session.Iterate honors context cancellation
// during a round — the in-flight query is withdrawn, its leases and engines
// released, and the session stays usable for the next query. Close joins
// every agent goroutine, so a leak would hang the test.
func TestIterateCancelMidRound(t *testing.T) {
	gen := workload.ClusteredPoints{Seed: 5, Dim: 2, K: 2, Spread: 0.1}
	d, src := buildPointDeployment(t, gen, 1000)
	slow := slowSource{inner: src, delay: 2 * time.Millisecond}
	for i := range d.Clusters {
		d.Clusters[i].Sources = map[int]chunk.Source{0: slow, 1: slow}
	}
	sess, err := NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	p := apps.HistogramParams{Bins: 4, Dim: 2}
	params, err := apps.EncodeHistogramParams(p)
	if err != nil {
		t.Fatal(err)
	}
	step := func() *Step {
		r, err := apps.NewHistogramReducer(p)
		if err != nil {
			t.Fatal(err)
		}
		return &Step{App: apps.HistogramReducerName, Params: params, Reducer: r}
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(15 * time.Millisecond) // mid-round: ~40 jobs × 2ms/read
		cancel()
	}()
	_, _, err = sess.Iterate(ctx, 50, func(round int, prev core.Object) (*Step, error) {
		return step(), nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Iterate = %v, want context.Canceled", err)
	}

	// The canceled round released its jobs: a fresh query over the same
	// session runs to completion (leaked leases or a wedged agent would
	// starve or hang it).
	q, err := sess.Submit(*step())
	if err != nil {
		t.Fatal(err)
	}
	obj, _, err := q.Wait(context.Background())
	if err != nil {
		t.Fatalf("query after cancel: %v", err)
	}
	if got := obj.(*apps.HistogramObject).Total(); got != d.Index.TotalUnits() {
		t.Errorf("total after cancel = %d, want %d", got, d.Index.TotalUnits())
	}
	if err := sess.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestIterateCancelBetweenRounds: a context canceled at a round boundary
// stops before submitting the next round.
func TestIterateCancelBetweenRounds(t *testing.T) {
	gen := workload.ClusteredPoints{Seed: 6, Dim: 2, K: 2, Spread: 0.1}
	d, _ := buildPointDeployment(t, gen, 500)
	sess, err := NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx, cancel := context.WithCancel(context.Background())
	p := apps.HistogramParams{Bins: 4, Dim: 2}
	params, _ := apps.EncodeHistogramParams(p)
	rounds := 0
	_, _, err = sess.Iterate(ctx, 10, func(round int, prev core.Object) (*Step, error) {
		rounds++
		if round == 1 {
			cancel() // cancel after round 0 completed; round 1's step still runs
		}
		r, err := apps.NewHistogramReducer(p)
		if err != nil {
			return nil, err
		}
		return &Step{App: apps.HistogramReducerName, Params: params, Reducer: r}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Iterate = %v, want context.Canceled", err)
	}
	if rounds > 2 {
		t.Errorf("next called %d times after cancel", rounds)
	}
}

// TestSubmitAfterCloseRejected: a closed session refuses new queries with a
// clear error instead of deadlocking.
func TestSubmitAfterCloseRejected(t *testing.T) {
	gen := workload.ClusteredPoints{Seed: 7, Dim: 2, K: 2, Spread: 0.1}
	d, _ := buildPointDeployment(t, gen, 500)
	sess, err := NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	p := apps.HistogramParams{Bins: 4, Dim: 2}
	params, _ := apps.EncodeHistogramParams(p)
	r, err := apps.NewHistogramReducer(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Submit(Step{App: apps.HistogramReducerName, Params: params, Reducer: r}); err == nil {
		t.Error("Submit on closed session accepted")
	}
}

// TestQueryCancelReleasesOthers: canceling one of two concurrent queries
// leaves the other to finish with the full dataset.
func TestQueryCancelReleasesOthers(t *testing.T) {
	gen := workload.ClusteredPoints{Seed: 9, Dim: 2, K: 2, Spread: 0.1}
	d, src := buildPointDeployment(t, gen, 1000)
	slow := slowSource{inner: src, delay: time.Millisecond}
	for i := range d.Clusters {
		d.Clusters[i].Sources = map[int]chunk.Source{0: slow, 1: slow}
	}
	sess, err := NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	p := apps.HistogramParams{Bins: 4, Dim: 2}
	params, _ := apps.EncodeHistogramParams(p)
	newStep := func() Step {
		r, err := apps.NewHistogramReducer(p)
		if err != nil {
			t.Fatal(err)
		}
		return Step{App: apps.HistogramReducerName, Params: params, Reducer: r}
	}
	victim, err := sess.Submit(newStep())
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := sess.Submit(newStep())
	if err != nil {
		t.Fatal(err)
	}
	victim.Cancel()
	if _, _, err := victim.Wait(context.Background()); !errors.Is(err, head.ErrQueryCanceled) {
		t.Errorf("victim Wait = %v, want ErrQueryCanceled", err)
	}
	obj, _, err := survivor.Wait(context.Background())
	if err != nil {
		t.Fatalf("survivor: %v", err)
	}
	if got := obj.(*apps.HistogramObject).Total(); got != d.Index.TotalUnits() {
		t.Errorf("survivor total = %d, want %d", got, d.Index.TotalUnits())
	}
}

// TestSubmitWeightValidation exercises the façade's pool override plumbing.
func TestSubmitOverrides(t *testing.T) {
	gen := workload.ClusteredPoints{Seed: 11, Dim: 2, K: 2, Spread: 0.1}
	d, _ := buildPointDeployment(t, gen, 600)
	sess, err := NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	p := apps.HistogramParams{Bins: 4, Dim: 2}
	params, _ := apps.EncodeHistogramParams(p)
	r, err := apps.NewHistogramReducer(p)
	if err != nil {
		t.Fatal(err)
	}
	// Per-step placement: everything at site 0, stealing off — only the
	// site-0 cluster reports folds.
	placement := make(jobs.Placement, len(d.Index.Files))
	q, err := sess.Submit(Step{
		App: apps.HistogramReducerName, Params: params, Reducer: r,
		Placement: placement,
		PoolOpts:  &jobs.Options{DisableStealing: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	obj, reports, err := q.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*apps.HistogramObject).Total(); got != d.Index.TotalUnits() {
		t.Errorf("total = %d, want %d", got, d.Index.TotalUnits())
	}
	for _, rep := range reports {
		if rep.Site == 1 && rep.Jobs.Total() != 0 {
			t.Errorf("site 1 processed %d jobs despite site-0 placement with stealing off", rep.Jobs.Total())
		}
	}
}

// TestLiveMergedTraceAndDebugMetrics is the observability acceptance drill:
// three queries run concurrently over two live sites with tracing on and the
// debug HTTP surface bound to an ephemeral port. Afterwards, (a) the
// Prometheus exposition at /debug/metrics carries query/site-labeled
// jobs-done counters agreeing exactly with the per-query cluster reports,
// and (b) the merged trace holds, for every completed job, a head-side
// grant span and a master-side process span sharing the query's TraceID.
func TestLiveMergedTraceAndDebugMetrics(t *testing.T) {
	gen := workload.ClusteredPoints{Seed: 9, Dim: 2, K: 3, Spread: 0.05}
	d, _ := buildPointDeployment(t, gen, 1500)
	d.Obs = obs.New(nil)
	d.Obs.Tracer.Enable()
	d.DebugAddr = "127.0.0.1:0"
	defer func() { dumpTraceOnFailure(t, d.Obs) }()

	sess, err := NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	steps, _ := mixedSteps(t)
	queries := make([]*Query, len(steps))
	for i, s := range steps {
		if queries[i], err = sess.Submit(s); err != nil {
			t.Fatalf("submit %s: %v", s.App, err)
		}
	}
	allReports := make([][]head.ClusterReport, len(queries))
	for i, q := range queries {
		if _, allReports[i], err = q.Wait(context.Background()); err != nil {
			t.Fatalf("%s: %v", steps[i].App, err)
		}
	}

	// (a) Scrape the live Prometheus endpoint and reconcile the labeled
	// counters against what each query's reports claim per site.
	resp, err := http.Get("http://" + sess.DebugAddr().String() + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	promText, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	promDone := map[string]int64{} // full sample line key → value
	for _, line := range strings.Split(string(promText), "\n") {
		if !strings.HasPrefix(line, "head_jobs_done_total{") {
			continue
		}
		key, val, ok := strings.Cut(line, "} ")
		if !ok {
			t.Fatalf("unparseable sample %q", line)
		}
		n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		promDone[key+"}"] = n
	}
	for i, reports := range allReports {
		for _, r := range reports {
			key := fmt.Sprintf(`head_jobs_done_total{query="%d",site="%d"}`, queries[i].ID(), r.Site)
			if got := promDone[key]; got != int64(r.Jobs.Total()) {
				t.Errorf("%s = %d, want %d (report for site %d)", key, got, r.Jobs.Total(), r.Site)
			}
		}
	}

	// (b) Every completed job appears in the merged trace twice under its
	// query's TraceID: once in a pid-0 grant span, once in a master-side
	// process span from the site that ran it.
	var buf bytes.Buffer
	if err := d.Obs.Tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid merged trace: %v", err)
	}
	type tj struct {
		trace float64
		job   int
	}
	granted := map[tj]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Name != "grant" {
			continue
		}
		if ev.PID != 0 {
			t.Fatalf("grant span on pid %d, want head pid 0", ev.PID)
		}
		tid, _ := ev.Args["trace"].(float64)
		ids, _ := ev.Args["jobs"].([]any)
		for _, id := range ids {
			granted[tj{tid, int(id.(float64))}] = true
		}
	}
	processed := map[float64]map[int]bool{} // trace id → job set
	for _, ev := range doc.TraceEvents {
		if ev.Name != "process" {
			continue
		}
		tid, _ := ev.Args["trace"].(float64)
		job := int(ev.Args["job"].(float64))
		site := int(ev.Args["site"].(float64))
		if ev.PID != site+1 {
			t.Errorf("process span for site %d on pid %d, want %d", site, ev.PID, site+1)
		}
		if !granted[tj{tid, job}] {
			t.Errorf("process span (trace %v, job %d) has no grant span sharing its TraceID", tid, job)
		}
		if processed[tid] == nil {
			processed[tid] = map[int]bool{}
		}
		processed[tid][job] = true
	}
	for i, q := range queries {
		tid := float64(q.ID() + 1) // live TraceID = query id + 1
		if got := len(processed[tid]); got != d.Index.NumChunks() {
			t.Errorf("%s: %d distinct jobs carry process spans under trace %v, want %d",
				steps[i].App, got, tid, d.Index.NumChunks())
		}
	}
}

// TestLiveWatchdogFlagsSlowSite injects a retrieval tarpit at one site of a
// live two-site session; the head's latency watchdog must flag that site —
// visible as a labeled straggler counter — and speculate its in-flight jobs
// without corrupting the query result.
func TestLiveWatchdogFlagsSlowSite(t *testing.T) {
	gen := workload.ClusteredPoints{Seed: 13, Dim: 2, K: 3, Spread: 0.05}

	step := func() Step {
		p := apps.HistogramParams{Bins: 8, Dim: 2}
		params, err := apps.EncodeHistogramParams(p)
		if err != nil {
			t.Fatal(err)
		}
		r, err := apps.NewHistogramReducer(p)
		if err != nil {
			t.Fatal(err)
		}
		return Step{App: apps.HistogramReducerName, Params: params, Reducer: r}
	}

	// Reference result on a healthy deployment.
	ref, _ := buildPointDeployment(t, gen, 1500)
	refObj, _, err := ref.RunOnce(step())
	if err != nil {
		t.Fatal(err)
	}

	d, src := buildPointDeployment(t, gen, 1500)
	slow := map[int]chunk.Source{
		0: slowSource{inner: src, delay: 25 * time.Millisecond},
		1: slowSource{inner: src, delay: 25 * time.Millisecond},
	}
	d.Clusters[1].Sources = slow
	d.Obs = obs.New(nil)
	d.Obs.Tracer.Enable()
	defer func() { dumpTraceOnFailure(t, d.Obs) }()
	d.Tuning = config.Tuning{
		// Arm speculation but park the empty-pool timer: only the latency
		// watchdog can flag within this run.
		SpeculateAfter:  time.Hour,
		StragglerFactor: 3,
		// The tarpit site's two cores commit in pairs, so demand two
		// samples: the flag window is the gap between its first and second
		// wave, which the healthy site's polls straddle.
		WatchdogMinSamples: 2,
	}
	sess, err := NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// Admit only once both masters sit in a held poll: the admission then
	// wakes both, so the tarpit site is granted jobs however fast the healthy
	// one runs — left to race from a cold start, the healthy site can finish
	// all 30 jobs before the other has registered.
	for _, cs := range d.Clusters {
		parked := d.Obs.Registry.Counter("head_polls_parked_total", "site", strconv.Itoa(cs.Site))
		for deadline := time.Now().Add(10 * time.Second); parked.Value() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("site %d never parked a poll", cs.Site)
			}
		}
	}
	q, err := sess.Submit(step())
	if err != nil {
		t.Fatal(err)
	}
	obj, reports, err := q.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Exactly-once reduction despite racing copies: the histogram is
	// partition-invariant, so the result matches the healthy run exactly.
	if got, want := obj.(*apps.HistogramObject).Total(), refObj.(*apps.HistogramObject).Total(); got != want {
		t.Errorf("slowed-run total = %d, want %d", got, want)
	}
	jobsTotal := 0
	for _, r := range reports {
		jobsTotal += r.Jobs.Total()
	}
	if jobsTotal != d.Index.NumChunks() {
		t.Errorf("folded %d jobs, want %d", jobsTotal, d.Index.NumChunks())
	}

	// The tarpit site was flagged (the healthy site may or may not trip the
	// threshold; the slow one must).
	snap := d.Obs.Registry.Snapshot()
	var flagged int64
	for k, v := range snap {
		if strings.HasPrefix(k, "head_straggler_flagged_total{") && strings.Contains(k, `site="1"`) {
			flagged += v
		}
	}
	if flagged == 0 {
		t.Errorf("slow site never flagged; straggler counters: %v", filterPrefix(snap, "head_straggler_flagged_total"))
	}
}

// dumpTraceOnFailure writes the session's merged trace into
// $TRACE_ARTIFACT_DIR when the test has failed, so CI can upload it as an
// artifact for span-level inspection. A no-op outside CI.
func dumpTraceOnFailure(t *testing.T, o *obs.Obs) {
	dir := os.Getenv("TRACE_ARTIFACT_DIR")
	if dir == "" || !t.Failed() || o == nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("trace artifact dir: %v", err)
		return
	}
	var buf bytes.Buffer
	if err := o.Tracer.WriteJSON(&buf); err != nil {
		t.Logf("rendering trace artifact: %v", err)
		return
	}
	path := filepath.Join(dir, t.Name()+".trace.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Logf("writing trace artifact: %v", err)
		return
	}
	t.Logf("merged trace written to %s", path)
}

// filterPrefix returns the snapshot entries whose key starts with prefix
// (for failure messages).
func filterPrefix(snap map[string]int64, prefix string) map[string]int64 {
	out := map[string]int64{}
	for k, v := range snap {
		if strings.HasPrefix(k, prefix) {
			out[k] = v
		}
	}
	return out
}

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netem"
)

func TestMedianPercentileQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := percentile(ten, 0.99); math.Abs(got-9.91) > 1e-12 {
		t.Errorf("p99 of 1..10 = %v, want 9.91", got)
	}
	if ten[0] != 10 {
		t.Error("percentile sorted its argument in place")
	}
	// The values Python's statistics.quantiles(vs, n=4) gives.
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{ten, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 3}, 0.5, 3.5},
	} {
		q1, q3 := quartiles(c.vs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Start: 0, End: 100 * ms, Parent: -1},
		// Nested: a child with its own child.
		{Name: "child", Start: 10 * ms, End: 40 * ms, Parent: 0},
		{Name: "leaf", Start: 15 * ms, End: 25 * ms, Parent: 1},
		// Overlapping siblings cover 50..80 once, not twice.
		{Name: "child", Start: 50 * ms, End: 70 * ms, Parent: 0},
		{Name: "child", Start: 60 * ms, End: 80 * ms, Parent: 0},
		// A child running past its parent is clipped to it.
		{Name: "late", Start: 90 * ms, End: 120 * ms, Parent: 0},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root":  100*ms - 30*ms - 30*ms - 10*ms,
		"child": 20*ms + 20*ms + 20*ms,
		"leaf":  10 * ms,
		"late":  30 * ms,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

func TestAssignLanes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "agent", Start: 0, End: 100 * ms, Parent: -1, Site: 0},
		{Name: "job", Start: 10 * ms, End: 50 * ms, Parent: 0, Site: 0},
		{Name: "job", Start: 20 * ms, End: 60 * ms, Parent: 0, Site: 0}, // overlaps its sibling
		{Name: "retrieve", Start: 12 * ms, End: 30 * ms, Parent: 1, Site: 0},
	}
	tids := assignLanes(spans)
	if tids[1] != tids[0] {
		t.Errorf("first job on lane %d, want its parent's lane %d", tids[1], tids[0])
	}
	if tids[2] == tids[1] {
		t.Error("overlapping sibling jobs share a lane")
	}
	if tids[3] != tids[1] {
		t.Errorf("retrieve on lane %d, want its job's lane %d", tids[3], tids[1])
	}
}

// TestRelayConservesBytes pushes a payload through the shaped relay in both
// directions at once and checks that every byte arrives, in order, and that
// the relay counted exactly what it forwarded.
func TestRelayConservesBytes(t *testing.T) {
	echo, err := listen()
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Close()
	const n = 3*mib + 17
	up := bytes.Repeat([]byte("up-stream"), n/9+1)[:n]
	down := bytes.Repeat([]byte("downstream!"), n/11+1)[:n]
	type received struct {
		data []byte
		err  error
	}
	server := make(chan received, 1)
	go func() {
		c, err := echo.Accept()
		if err != nil {
			server <- received{nil, err}
			return
		}
		defer c.Close()
		wrote := make(chan error, 1)
		go func() {
			_, err := c.Write(down)
			wrote <- err
		}()
		buf := make([]byte, n)
		_, err = io.ReadFull(c, buf)
		if werr := <-wrote; err == nil {
			err = werr
		}
		server <- received{buf, err}
	}()

	var forwarded atomic.Int64
	link := netem.Link{BytesPerSec: 256 * mib, Latency: 100 * time.Microsecond}
	r, err := newRelay(echo.Addr().String(), netem.NewShaper(link), netem.NewShaper(link), &forwarded)
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := c.Write(up)
		wrote <- err
	}()
	got := make([]byte, n)
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	srv := <-server
	if srv.err != nil {
		t.Fatal(srv.err)
	}
	c.Close()
	r.Close()
	if !bytes.Equal(got, down) {
		t.Error("client received different bytes than the server sent")
	}
	if !bytes.Equal(srv.data, up) {
		t.Error("server received different bytes than the client sent")
	}
	if f := forwarded.Load(); f != 2*n {
		t.Errorf("relay counted %d bytes, want %d", f, 2*n)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "makespan_p50_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "jobs_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	scale := func(vs []float64, f float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{0.7, 1.0, 1.3, 0.8, 1.2}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want verdict
	}{
		{"same", lower, steady, steady, verdictOK},
		{"5% slower is inside the bound", lower, steady, scale(steady, 1.05), verdictOK},
		{"20% slower", lower, steady, scale(steady, 1.2), verdictRegression},
		{"20% faster", lower, steady, scale(steady, 0.8), verdictOK},
		{"20% fewer jobs/s", higher, steady, scale(steady, 0.8), verdictRegression},
		{"20% more jobs/s", higher, steady, scale(steady, 1.2), verdictOK},
		{"spread wider than the bound", lower, noisy, noisy, verdictUnresolved},
		{"noisy but every run better", lower, noisy, scale(noisy, 0.4), verdictOK},
	} {
		if got := compareMetric(c.d, c.a, c.b).Verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestManifestMatchesBenchmarkJSON keeps the root BENCHMARK.json and the
// tables in this package from drifting apart.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(onDisk, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(manifest(), &b); err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Error("BENCHMARK.json differs from `go run ./bench manifest`; regenerate it")
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
}

// TestTinyWorkloads runs all six workloads end to end on 1/64 of the data,
// result check on: the untraced run must report every end-to-end metric, the
// traced run every per-layer metric, and neither may fail an operation.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: w.Name, seed: 7, trace: trace, tiny: true}
			if trace {
				o.traceOut = filepath.Join(t.TempDir(), "trace.json")
			}
			res, err := runWorkload(findWorkload(w.Name), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.Name, trace, res.Failed, res.Attempted, res.errors)
			}
			for _, d := range modeMetrics(trace) {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, d.Name)
				} else if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %v", w.Name, trace, d.Name, m.Value)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, res.Metrics[d.Name].Value)
					}
				}
				continue
			}
			if res.Metrics["bench.goroutines_leaked"].Value != 0 {
				t.Errorf("%s: %v goroutines leaked", w.Name, res.Metrics["bench.goroutines_leaked"].Value)
			}
			data, err := os.ReadFile(o.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var file struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &file); err != nil || len(file.TraceEvents) == 0 {
				t.Errorf("%s: trace file has %d events (%v)", w.Name, len(file.TraceEvents), err)
			}
		}
	}
}

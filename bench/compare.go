package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict of one workload × end-to-end metric between two sets of runs.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegression verdict = "regression" // b's median is worse than a's by more than the bound
	verdictUnresolved verdict = "unresolved" // the run-to-run spread exceeds the bound
)

// comparison is one row of `bench compare`.
type comparison struct {
	Workload, Metric string
	A, B             []float64
	Delta            float64 // how much worse b's median is than a's, as a share of a's (negative = better)
	Spread           float64 // the larger of the two sets' interquartile ranges over their medians
	Bound            float64
	Verdict          verdict
}

// compareMetric judges b against a for one metric definition.
func compareMetric(d metricDef, a, b []float64) comparison {
	c := comparison{Metric: d.Name, A: a, B: b, Bound: d.Bound}
	ma, mb := median(a), median(b)
	c.Delta = ratio(mb-ma, ma)
	if d.Better == "higher" {
		c.Delta = -c.Delta
	}
	for _, vs := range [][]float64{a, b} {
		q1, q3 := quartiles(vs)
		if s := ratio(q3-q1, median(vs)); s > c.Spread {
			c.Spread = s
		}
	}
	switch {
	case c.Spread > d.Bound && !allBetter(d, a, b):
		c.Verdict = verdictUnresolved
	case c.Delta > d.Bound:
		c.Verdict = verdictRegression
	default:
		c.Verdict = verdictOK
	}
	return c
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(d metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (d.Better == "lower" && y >= x) || (d.Better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}

func readRecords(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file struct {
		Runs []record `json:"runs"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]map[string][]float64)
	for _, r := range file.Runs {
		if r.Trace {
			continue // end-to-end numbers always come from untraced runs
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: %s seed %d failed its result check", path, r.Workload, r.Seed)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, nil
}

// compareSets compares every workload both files have, in workload order.
func compareSets(a, b map[string]map[string][]float64) []comparison {
	var rows []comparison
	for _, w := range workloads {
		if a[w.Name] == nil || b[w.Name] == nil {
			continue
		}
		for _, d := range endToEnd {
			c := compareMetric(d, a[w.Name][d.Name], b[w.Name][d.Name])
			c.Workload = w.Name
			rows = append(rows, c)
		}
	}
	return rows
}

func printComparison(w io.Writer, rows []comparison) (regressions int) {
	unresolved := 0
	fmt.Fprintf(w, "%-20s %-16s %34s %34s %8s %8s %6s  %s\n", "workload", "metric",
		"a: q1 / median / q3", "b: q1 / median / q3", "delta", "spread", "bound", "verdict")
	for _, c := range rows {
		qa1, qa3 := quartiles(c.A)
		qb1, qb3 := quartiles(c.B)
		fmt.Fprintf(w, "%-20s %-16s %10.4g /%10.4g /%10.4g %10.4g /%10.4g /%10.4g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
			c.Workload, c.Metric, qa1, median(c.A), qa3, qb1, median(c.B), qb3,
			100*c.Delta, 100*c.Spread, 100*c.Bound, c.Verdict)
		switch c.Verdict {
		case verdictRegression:
			regressions++
		case verdictUnresolved:
			unresolved++
		}
	}
	fmt.Fprintf(w, "%d rows: %d regression, %d unresolved (delta > 0 means b is worse)\n", len(rows), regressions, unresolved)
	return regressions
}

// compareMain implements `bench compare a.json b.json`: exit 1 when any
// workload × end-to-end metric regressed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare <a.json> <b.json>")
		return 2
	}
	var sets [2]map[string]map[string][]float64
	for i, path := range args {
		var err error
		if sets[i], err = readRecords(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	rows := compareSets(sets[0], sets[1])
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "bench: no workload appears in both files")
		return 2
	}
	if printComparison(os.Stdout, rows) > 0 {
		return 1
	}
	return 0
}

// Command bench is the repository's benchmark: it boots a live
// head/master/object-store deployment in one process over loopback TCP, runs
// one of six named workloads as a closed loop, checks every result against a
// single-worker reference, and prints every metric by name with its unit.
// bench/README.md describes the topology, workloads and metrics.
//
//	go run ./bench -workload knn-lan -seed 1 [-seconds 8] [-trace 1] [-trace-out t.json] [-out r.json]
//	go run ./bench -workload all -runs 5 -out a.json
//	go run ./bench compare a.json b.json
//	go run ./bench manifest            # prints BENCHMARK.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runSeconds is the length of the timed section the driver asks for
// (BENCHMARK.json run_seconds) and the default of -seconds.
const runSeconds = 8

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "manifest":
			os.Stdout.Write(manifest())
			return
		}
	}
	var o options
	var trace, runs int
	var out string
	flag.StringVar(&o.workload, "workload", "", "workload name, or \"all\" with -runs")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the dataset generators and the knn query point")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the timed section")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics instead of end-to-end")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the kept spans as Chrome/Perfetto JSON (traced runs)")
	flag.StringVar(&out, "out", "", "write the run records as JSON, the input of `bench compare`")
	flag.IntVar(&runs, "runs", 1, "repeat in fresh processes, seeds seed..seed+runs-1")
	flag.BoolVar(&o.verbose, "v", false, "print every rep's makespan to standard error")
	scale := flag.String("scale", "full", "full, or tiny (1/64 of the data; for tests)")
	flag.Parse()
	o.trace = trace != 0
	o.tiny = *scale == "tiny"

	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if findWorkload(o.workload) == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; the workloads are:\n", o.workload)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-20s %s\n", w.Name, w.Why)
		}
		os.Exit(2)
	}

	if runs == 1 && len(names) == 1 {
		res, err := runWorkload(findWorkload(names[0]), o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		printResult(os.Stdout, names[0], o, res)
		if out != "" {
			if err := writeRecords(out, []record{newRecord(names[0], o, res)}); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
		}
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	// One fresh process per run, so peak RSS, the buffer pool and the
	// allocator start clean every time.
	var records []record
	for _, name := range names {
		for i := 0; i < runs; i++ {
			ro := o
			ro.workload, ro.seed = name, o.seed+uint64(i)
			rec, err := runChild(ro, *scale)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", name, ro.seed, err)
				os.Exit(1)
			}
			fmt.Printf("%-20s seed %-4d makespan_p50_s=%.4f correct=%v\n", name, ro.seed,
				rec.Metrics["makespan_p50_s"].Value, rec.Correct)
			records = append(records, rec)
		}
	}
	if out != "" {
		if err := writeRecords(out, records); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
}

// record is one run as `bench compare` reads it.
type record struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Trace    bool              `json:"trace"`
	Correct  bool              `json:"correct"`
	Metrics  map[string]metric `json:"metrics"`
}

func newRecord(name string, o options, res *result) record {
	return record{Workload: name, Seed: o.seed, Trace: o.trace, Correct: res.Correct, Metrics: res.Metrics}
}

func writeRecords(path string, records []record) error {
	data, err := json.MarshalIndent(map[string]any{"runs": records}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runChild runs one workload in a fresh copy of this program and parses the
// result line it prints last.
func runChild(o options, scale string) (record, error) {
	exe, err := os.Executable()
	if err != nil {
		return record{}, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace, "-scale", scale)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return record{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return record{}, fmt.Errorf("parsing result line: %w", err)
	}
	return newRecord(o.workload, o, &res), nil
}

// modeMetrics is the set of metrics the result line carries: every
// end-to-end metric untraced, every per-layer metric traced.
func modeMetrics(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printResult prints every metric by name with its unit, then — as the last
// line — the result object the benchmark contract asks for.
func printResult(f *os.File, name string, o options, res *result) {
	mode := "end-to-end (untraced)"
	if o.trace {
		mode = "per-layer (traced; even reps traced, odd reps untraced)"
	}
	fmt.Fprintf(f, "workload %s  seed %d  timed reps %d  %s\n", name, o.seed, res.reps, mode)
	line := result{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]metric)}
	for _, d := range modeMetrics(o.trace) {
		m, ok := res.Metrics[d.Name]
		if !ok {
			panic("bench: metric " + d.Name + " was not measured")
		}
		line.Metrics[d.Name] = m
		fmt.Fprintf(f, "  %-36s %16.6g %s\n", d.Name, m.Value, m.Unit)
	}
	if len(res.selfTime) > 0 {
		fmt.Fprintf(f, "self time by span, %d kept reps:\n", keptReps)
		names := make([]string, 0, len(res.selfTime))
		for n := range res.selfTime {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(f, "  %-36s %16.6g s\n", n, res.selfTime[n].Seconds())
		}
	}
	for _, e := range res.errors {
		fmt.Fprintln(f, "FAILED:", e)
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(f, "%s\n", data)
}

// manifest renders BENCHMARK.json from the tables in this package, so the
// file and the harness cannot drift (a test compares them).
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"` // their zero bound is omitted
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(data, '\n')
}

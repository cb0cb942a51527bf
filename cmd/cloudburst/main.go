// Command cloudburst regenerates the paper's evaluation tables and figures
// from the calibrated hybrid-cluster model and the real processing engines.
//
// Usage:
//
//	cloudburst fig1                     API comparison (Figure 1), real engines
//	cloudburst fig3  [-app knn]         execution-time decomposition (Figure 3)
//	cloudburst table1 [-app knn]        job assignment (Table I)
//	cloudburst table2 [-app knn]        slowdown decomposition (Table II)
//	cloudburst fig4  [-app knn]         scalability (Figure 4)
//	cloudburst trace fig3 [-app knn]    per-job event traces (Chrome/Perfetto JSON)
//	cloudburst trace multi              merged multi-query trace, all apps concurrently
//	cloudburst headline                 the paper's summary numbers
//	cloudburst ablations                design-choice ablation studies
//	cloudburst faults [-app knn]        fault tolerance: makespan vs checkpoint cadence
//	cloudburst estimate [-app knn]      analytic makespan model vs simulator
//	cloudburst cost [-app knn]          pay-as-you-go bills per environment
//	cloudburst provision [-app knn]     cheapest configuration meeting a deadline
//	cloudburst elastic [-app kmeans] [-stage] [-iterations n] [-launch-delay d]
//	                                    deadline×budget sweep of the burst
//	                                    arbiter vs static provisioning,
//	                                    optionally with burst-side pre-staging
//	cloudburst elastic -query app=knn,deadline=120s,budget=0.10 -query app=kmeans
//	                                    mixed-policy multi-query workload under
//	                                    the session-wide arbiter (repeatable)
//	cloudburst all                      everything above
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/costmodel"
	"repro/internal/elastic"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// queryFlags collects repeated -query flags, each describing one query of a
// mixed-policy multi-query workload for `cloudburst elastic`:
//
//	-query app=knn,deadline=120s,budget=0.10
//	-query app=kmeans,weight=2 -query app=pagerank
//
// Recognized keys: app, name, weight, deadline, budget, min, max (min/max
// bound the query's burst-worker ask). Any policy key present attaches an
// elastic.Policy; a bare app= rides along unpolicied on fair share.
type queryFlags []experiments.MultiPolicyQuery

func (q *queryFlags) String() string {
	parts := make([]string, len(*q))
	for i, mq := range *q {
		parts[i] = mq.Name
	}
	return strings.Join(parts, " ")
}

func (q *queryFlags) Set(s string) error {
	mq := experiments.MultiPolicyQuery{Weight: 1}
	var pol elastic.Policy
	havePol := false
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || v == "" {
			return fmt.Errorf("bad -query field %q (want key=value)", kv)
		}
		switch k {
		case "app":
			app := experiments.App(v)
			if !slices.Contains(experiments.Apps, app) {
				return fmt.Errorf("-query: unknown app %q (want knn, kmeans, or pagerank)", v)
			}
			mq.App = app
		case "name":
			mq.Name = v
		case "weight":
			w, err := strconv.Atoi(v)
			if err != nil || w < 1 {
				return fmt.Errorf("-query: bad weight %q (want integer ≥ 1)", v)
			}
			mq.Weight = w
		case "deadline":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return fmt.Errorf("-query: bad deadline %q (want a positive duration like 120s)", v)
			}
			pol.Deadline, havePol = d, true
		case "budget":
			b, err := strconv.ParseFloat(v, 64)
			if err != nil || b <= 0 {
				return fmt.Errorf("-query: bad budget %q (want dollars > 0 like 0.10)", v)
			}
			pol.Budget, havePol = b, true
		case "min":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return fmt.Errorf("-query: bad min %q (want integer ≥ 0)", v)
			}
			pol.MinWorkers, havePol = n, true
		case "max":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return fmt.Errorf("-query: bad max %q (want integer ≥ 1)", v)
			}
			pol.MaxWorkers, havePol = n, true
		default:
			return fmt.Errorf("-query: unknown key %q (want app, name, weight, deadline, budget, min, max)", k)
		}
	}
	if havePol {
		if err := pol.Validate(); err != nil {
			return fmt.Errorf("-query: %w", err)
		}
		mq.Policy = &pol
	}
	*q = append(*q, mq)
	return nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	// `cloudburst trace <fig3|fig4> [flags]`: peel the figure selector off
	// before flag parsing.
	traceFigure := "fig3"
	if cmd == "trace" && len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		traceFigure, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(io.Discard) // we print our own one-line errors
	appFlag := fs.String("app", "", "application: knn, kmeans, pagerank (default: all)")
	outFlag := fs.String("out", "trace", "trace: output file prefix")
	csvFlag := fs.String("csv", "", "elastic: also write the frontier as CSV to this file")
	shortFlag := fs.Bool("short", false, "elastic: smaller deadline×budget grid (for CI)")
	stageFlag := fs.Bool("stage", false, "elastic: enable the burst-side partition cache (pre-staged replica at the cloud site)")
	stageCapFlag := fs.Int64("stage-cap", 0, "elastic: stage cache capacity in MiB (0 = calibrated default, 16 GiB)")
	itersFlag := fs.Int("iterations", 1, "elastic: dataset passes per query (>1 exercises the cache's warm iterations)")
	launchFlag := fs.Duration("launch-delay", 0, "elastic: simulated worker boot time; the arbiter provisions ahead by the same lead time")
	var queryFlag queryFlags
	fs.Var(&queryFlag, "query", "elastic: one query of a mixed-policy multi-query workload under the session arbiter, repeatable: -query app=knn,deadline=120s,budget=0.10 (keys: app, name, weight, deadline, budget, min, max)")
	debugFlag := fs.String("debug-addr", "", "serve /debug/pprof/ on this address while the run executes (e.g. :6060)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			usage()
			flagHelp(fs)
			return
		}
		fmt.Fprintf(os.Stderr, "cloudburst %s: %v (run 'cloudburst help' for usage)\n", cmd, err)
		os.Exit(2)
	}
	if *debugFlag != "" {
		// Profiling endpoints for long experiment runs. The traced
		// experiments each use a private Obs bundle, so only the
		// process-wide pprof surface is meaningful here.
		_, addr, err := obs.ServeDebug(*debugFlag, nil, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cloudburst:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "cloudburst: debug endpoints on http://%s/debug/pprof/\n", addr)
	}
	apps := experiments.Apps
	if *appFlag != "" {
		app := experiments.App(*appFlag)
		if !slices.Contains(experiments.Apps, app) {
			fmt.Fprintf(os.Stderr, "cloudburst: unknown app %q (want knn, kmeans, or pagerank)\n", *appFlag)
			os.Exit(2)
		}
		apps = []experiments.App{app}
	}

	var err error
	switch cmd {
	case "fig1":
		err = runFig1()
	case "fig3", "table1", "table2":
		err = forEachApp(apps, func(app experiments.App) error {
			r, err := experiments.RunFig3(app)
			if err != nil {
				return err
			}
			format := map[string]func() string{"fig3": r.FormatFig3, "table1": r.FormatTable1, "table2": r.FormatTable2}
			fmt.Println(format[cmd]())
			return nil
		})
	case "fig4":
		err = forEachApp(apps, func(app experiments.App) error {
			r, err := experiments.RunFig4(app)
			if err != nil {
				return err
			}
			fmt.Println(r.FormatFig4())
			return nil
		})
	case "trace":
		if traceFigure == "multi" {
			err = runTraceMulti(*outFlag)
			break
		}
		err = forEachApp(apps, func(app experiments.App) error {
			return runTrace(traceFigure, app, *outFlag)
		})
	case "headline":
		err = runHeadline()
	case "ablations":
		err = runAblations()
	case "faults":
		err = forEachApp(apps, func(app experiments.App) error {
			rows, err := experiments.RunFaultTable(app)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatFaultTable(rows))
			return nil
		})
	case "estimate":
		err = forEachApp(apps, func(app experiments.App) error {
			rows, err := experiments.RunEstimateValidation(app)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatEstimateTable(rows))
			return nil
		})
	case "cost":
		err = forEachApp(apps, func(app experiments.App) error {
			rows, err := experiments.RunCostTable(app, costmodel.DefaultPricing2011())
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatCostTable(rows))
			return nil
		})
	case "provision":
		err = forEachApp(apps, func(app experiments.App) error {
			const deadline = 150 * time.Second
			plan, err := experiments.RunProvisioning(app, costmodel.DefaultPricing2011(), deadline)
			if err != nil {
				return err
			}
			fmt.Printf("%s: %s\n", app, plan.Format(deadline))
			return nil
		})
	case "elastic":
		if len(queryFlag) > 0 {
			// Mixed-policy multi-query mode: every -query shares one
			// arbiter-sized fleet. -app picks the base deployment calibration
			// (default: the first query's app, else kmeans).
			base := experiments.KMeans
			if *appFlag != "" {
				base = apps[0]
			} else if queryFlag[0].App != "" {
				base = queryFlag[0].App
			}
			err = runElasticMulti(base, queryFlag, *csvFlag)
			break
		}
		opts := experiments.ElasticOptions{
			Staged:             *stageFlag,
			Iterations:         *itersFlag,
			LaunchDelay:        *launchFlag,
			StageCapacityBytes: *stageCapFlag << 20,
		}
		err = forEachApp(apps, func(app experiments.App) error {
			return runElasticSweep(app, *csvFlag, *shortFlag, opts)
		})
	case "all":
		if err = runFig1(); err != nil {
			break
		}
		err = experiments.WritePaperTables(os.Stdout, apps)
	case "help", "-h", "--help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "cloudburst: unknown subcommand %q (run 'cloudburst help' for the list)\n", cmd)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cloudburst:", err)
		os.Exit(1)
	}
}

func forEachApp(apps []experiments.App, f func(experiments.App) error) error {
	for _, app := range apps {
		if err := f(app); err != nil {
			return err
		}
	}
	return nil
}

func runHeadline() error {
	h, fig3s, fig4s, err := experiments.RunHeadline()
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatHeadline(h, fig3s, fig4s))
	return nil
}

func runFig1() error {
	r, err := experiments.RunFig1(experiments.DefaultFig1Config())
	if err != nil {
		return err
	}
	fmt.Println(r.Format())
	return nil
}

func runAblations() error {
	out, err := experiments.RunAblations()
	if err != nil {
		return err
	}
	fmt.Println(out)
	return nil
}

// runTrace executes one figure's runs for app with per-job event tracing
// enabled and writes them out (writeTracedRuns).
func runTrace(figure string, app experiments.App, outPrefix string) error {
	var (
		runs []experiments.TracedRun
		err  error
	)
	switch figure {
	case "fig3":
		runs, err = experiments.RunFig3Traced(app)
	case "fig4":
		runs, err = experiments.RunFig4Traced(app)
	default:
		return fmt.Errorf("trace: unknown figure %q (want fig3, fig4 or multi)", figure)
	}
	if err != nil {
		return err
	}
	return writeTracedRuns(outPrefix, runs)
}

// runTraceMulti runs all three applications as one concurrent multi-query
// workload over each hybrid environment and writes one MERGED trace per
// environment: head grant spans on pid 0, per-cluster job spans on pid i+1,
// every span tagged with the owning query's trace id.
func runTraceMulti(outPrefix string) error {
	var runs []experiments.TracedRun
	for _, env := range experiments.HybridEnvs {
		run, err := experiments.RunMultiTraced(env)
		if err != nil {
			return err
		}
		runs = append(runs, run)
	}
	return writeTracedRuns(outPrefix, runs)
}

// writeTracedRuns writes one Chrome-trace JSON and one metrics snapshot per
// run, and prints a verification line per run comparing the trace's
// phase-summary spans against the run's stats.Breakdown.
func writeTracedRuns(outPrefix string, runs []experiments.TracedRun) error {
	for _, run := range runs {
		tracePath, err := writeTraced(outPrefix, run.Label, run.Obs)
		if err != nil {
			return err
		}
		fmt.Printf("%-22s total=%8.1fs  queries=%d  events=%6d  phase-drift=%.4f%%  -> %s\n",
			run.Label, run.Sim.Total.Seconds(), len(run.Sim.Queries), run.Obs.Tracer.Len(),
			100*run.PhaseDrift(), tracePath)
	}
	fmt.Println("load the .trace.json files at https://ui.perfetto.dev (or chrome://tracing)")
	return nil
}

// writeTraced writes one traced run's Chrome-trace JSON and metrics snapshot
// to <prefix>-<label>.trace.json and .metrics.txt, returning the trace path.
func writeTraced(prefix, label string, o *obs.Obs) (string, error) {
	tracePath := fmt.Sprintf("%s-%s.trace.json", prefix, label)
	if err := writeFile(tracePath, o.Tracer.WriteJSON); err != nil {
		return "", err
	}
	return tracePath, writeFile(fmt.Sprintf("%s-%s.metrics.txt", prefix, label), o.Registry.WriteText)
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runElasticSweep runs the burst arbiter inside the simulator over a
// deadline × budget grid and prints the dynamic cost-vs-makespan frontier
// next to the static provisioning baseline. Per-second billing
// (DefaultPricingCurrent) so scale-down pays off within a run. With -stage
// the burst-side partition cache is modelled for the elastic points and the
// static baseline alike.
func runElasticSweep(app experiments.App, csvPath string, short bool, opts experiments.ElasticOptions) error {
	deadlines := experiments.DefaultElasticDeadlines
	budgets := experiments.DefaultElasticBudgets
	if short {
		deadlines = deadlines[:1]
		budgets = budgets[:1]
	}
	sw, err := experiments.RunElasticSweepWith(app, costmodel.DefaultPricingCurrent(), deadlines, budgets, opts)
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatElasticSweep(sw))
	if csvPath != "" {
		path := csvPath
		if app != "" && strings.Contains(path, "%s") {
			path = fmt.Sprintf(path, app)
		}
		if err := os.WriteFile(path, []byte(experiments.ElasticSweepCSV(sw)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cloudburst: wrote %s\n", path)
	}
	return nil
}

// runElasticMulti simulates the -query workload — several concurrent
// queries, each with its own deadline/budget policy, sharing one burst fleet
// sized by the session-wide arbiter — over baseApp's calibrated deployment,
// and prints per-query outcomes next to the arbiter's decision log.
func runElasticMulti(baseApp experiments.App, queries []experiments.MultiPolicyQuery, csvPath string) error {
	// Default display names: the query's app, suffixed on repeats.
	seen := make(map[string]int)
	for i := range queries {
		if queries[i].Name == "" {
			name := string(queries[i].App)
			if name == "" {
				name = string(baseApp)
			}
			if n := seen[name]; n > 0 {
				queries[i].Name = fmt.Sprintf("%s-%d", name, n+1)
			} else {
				queries[i].Name = name
			}
			seen[name]++
		}
	}
	p, err := experiments.RunElasticMultiPoint(baseApp, costmodel.DefaultPricingCurrent(), queries)
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatElasticMulti(&p))
	if csvPath != "" {
		if err := os.WriteFile(csvPath, []byte(experiments.ElasticMultiCSV(&p)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cloudburst: wrote %s\n", csvPath)
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: cloudburst <subcommand> [-app knn|kmeans|pagerank]

subcommands:
  fig1        API comparison (Figure 1), real engines
  fig3        execution-time decomposition (Figure 3)
  table1      job assignment (Table I)
  table2      slowdown decomposition (Table II)
  fig4        scalability (Figure 4)
  trace       per-job event traces: cloudburst trace <fig3|fig4|multi> [-app knn] [-out prefix]
  headline    the paper's summary numbers
  ablations   design-choice ablation studies
  faults      fault tolerance: makespan vs checkpoint cadence (jobs) at 0/1/4 failures
  estimate    performance-estimate validation
  cost        cloud cost table
  provision   deadline-driven provisioning plan
  elastic     dynamic provisioning sweep: cost-vs-makespan frontier vs static
              baseline, [-csv file] [-short] [-stage] [-stage-cap mib]
              [-iterations n] [-launch-delay d]; or a mixed-policy
              multi-query run under the session arbiter via repeated -query
  all         everything above
  help        this message

apps (-app): knn, kmeans, pagerank (default: all)

cache flags (elastic): -stage models the burst-side partition cache
(pre-staged cloud replica; retrieval-bound apps become burst-worthy),
-stage-cap caps the replica in MiB, -iterations re-scans the dataset so warm
passes hit the cache, -launch-delay adds worker boot time plus the matching
arbiter lead time.

multi-query mode (elastic): each repeated -query admits one query with its
own policy into ONE shared arbiter-sized fleet, e.g.
  cloudburst elastic -query app=knn,deadline=120s,budget=0.10 \
                     -query app=kmeans,weight=2 -query app=pagerank
keys: app, name, weight, deadline (e.g. 120s), budget (dollars), min, max
(burst-worker bounds). Omitting every policy key makes the query ride along
unpolicied; -csv writes the per-query outcomes.`)
}

// flagHelp prints the flag listing for -h/--help after the usage text.
func flagHelp(fs *flag.FlagSet) {
	fmt.Fprintln(os.Stderr, "\nflags:")
	fs.SetOutput(os.Stderr)
	fs.PrintDefaults()
}

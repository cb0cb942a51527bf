// Command headnode runs the framework's head node: it reads the dataset
// index, builds the global job pool with the file→site placement, serves
// job groups to cluster masters (local first, stolen after), and performs
// the final global reduction once every cluster reports.
//
// Example (knn over a dataset whose first 11 files live at site 0 and the
// rest in the object store at site 1):
//
//	headnode -listen :9400 -index /data/points/index.grix \
//	         -local-files 11 -clusters 2 \
//	         -app knn -knn-k 10 -dim 8 -query 0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"repro/internal/appcfg"
	"repro/internal/chunk"
	"repro/internal/config"
	"repro/internal/daemon"
	"repro/internal/elastic"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/protocol"
)

func main() {
	var (
		listen     = flag.String("listen", ":9400", "listen address")
		indexPath  = flag.String("index", "", "path to the dataset index (required)")
		localFiles = flag.Int("local-files", 0, "number of leading files hosted at site 0 (rest at site 1)")
		clusters   = flag.Int("clusters", 2, "clusters expected to register")
		app        = flag.String("app", "knn", "application: knn, kmeans, pagerank")

		knnK  = flag.Int("knn-k", 10, "knn: neighbors")
		dim   = flag.Int("dim", 8, "knn/kmeans: point dimensionality")
		query = flag.String("query", "", "knn: comma-separated query point")

		centers = flag.String("centers", "", "kmeans: semicolon-separated centers, each comma-separated")
		bins    = flag.Int("bins", 16, "histogram: bucket count")

		nodes   = flag.Int("nodes", 0, "pagerank: node count")
		damping = flag.Float64("damping", 0.85, "pagerank: damping factor")
	)
	var tn config.Tuning
	tn.RegisterFlags(flag.CommandLine)
	var df daemon.Flags
	df.Register(flag.CommandLine)
	var ef daemon.ElasticFlags
	ef.Register(flag.CommandLine)
	flag.Parse()
	if *indexPath == "" {
		log.Fatal("headnode: -index is required")
	}
	if err := tn.Validate(); err != nil {
		log.Fatalf("headnode: %v", err)
	}
	f, err := os.Open(*indexPath)
	if err != nil {
		log.Fatalf("headnode: %v", err)
	}
	ix, err := chunk.ReadIndex(f)
	f.Close()
	if err != nil {
		log.Fatalf("headnode: reading index: %v", err)
	}

	params, reducer, unitSize, err := appcfg.Build(appcfg.Spec{
		App: *app, Dim: *dim,
		K: *knnK, Query: *query,
		Centers: *centers,
		Nodes:   *nodes, Damping: *damping,
		Bins: *bins,
	})
	if err != nil {
		log.Fatalf("headnode: %v", err)
	}
	if ix.UnitSize != unitSize {
		log.Fatalf("headnode: index unit size %d does not match %s's %d", ix.UnitSize, *app, unitSize)
	}

	rt, err := daemon.Start("headnode", df, log.Printf)
	if err != nil {
		log.Fatalf("headnode: %v", err)
	}
	fail := func(format string, args ...any) {
		log.Printf(format, args...)
		_ = rt.Close()
		os.Exit(1)
	}

	placement := jobs.SplitByFraction(len(ix.Files), float64(*localFiles)/float64(len(ix.Files)), 0, 1)
	pool, err := jobs.NewPool(ix, placement, jobs.Options{Metrics: rt.Obs.Registry})
	if err != nil {
		fail("headnode: %v", err)
	}
	gb := tn.GroupBytes
	if gb == 0 {
		gb = 256 << 10 // default unit-group (cache) budget per reduction batch
	}
	spec := protocol.JobSpec{
		App:        *app,
		Params:     params,
		UnitSize:   unitSize,
		GroupBytes: gb,
	}
	if err := head.EncodeIndexSpec(&spec, ix); err != nil {
		fail("headnode: %v", err)
	}
	h, err := head.New(head.Config{
		ExpectClusters: *clusters,
		Logf:           log.Printf,
		Obs:            rt.Obs,
		Tuning:         tn,
		DynamicSites:   ef.Elastic,
	})
	if err != nil {
		fail("headnode: %v", err)
	}
	q, err := h.Admit(head.QueryConfig{Pool: pool, Reducer: reducer, Spec: spec, ExpectAll: true,
		Policy: ef.Policy()})
	if err != nil {
		fail("headnode: %v", err)
	}
	if ef.Elastic {
		go runElasticAdvisor(rt.Context(), h, ef.MaxWorkers, log.Printf)
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fail("headnode: %v", err)
	}
	log.Printf("headnode: %s over %d jobs (%d files, %d local) on %s, expecting %d clusters",
		*app, ix.NumChunks(), len(ix.Files), *localFiles, l.Addr(), *clusters)
	go func() {
		if err := h.Serve(l); err != nil {
			fail("headnode: serve: %v", err)
		}
	}()

	// One query, then the session ends: Wait returns on completion, failure
	// or SIGINT/SIGTERM; Shutdown tells the masters (parked at the head or
	// mid-poll) to leave, and Close returns once they have hung up.
	_, reports, grTime, err := q.Wait(rt.Context())
	signaled := rt.Context().Err() != nil
	h.Shutdown()
	switch {
	case signaled:
		log.Printf("headnode: shutdown signal; closing listener")
	case err != nil:
		log.Printf("headnode: run failed: %v", err)
	default:
		fmt.Printf("run complete; global reduction took %v\n", grTime)
		for _, r := range reports {
			fmt.Printf("  cluster %-8s site %d: %v  jobs local=%d stolen=%d\n",
				r.Cluster, r.Site, r.Breakdown, r.Jobs.Local, r.Jobs.Stolen)
		}
	}
	_ = h.Close()
	_ = rt.Close()
	if err != nil && !signaled {
		os.Exit(1)
	}
}

// elasticAdvisor is the multi-process deployment's elasticity loop: the
// session arbiter over the head's admitted queries (headnode admits one,
// carrying the -deadline/-budget policy). The headnode cannot launch worker
// processes itself, so scale-up decisions are logged as advisories (an
// operator — or an external autoscaler tailing the log — starts more
// workernode processes, which register as dynamic sites); scale-down
// decisions are executed directly through the head's graceful drain. The
// estimator is observed throughput (the analytic model needs a calibrated
// topology the daemon does not have), so the arbiter runs the same Step code
// as the driver with a different raw() source.
type elasticAdvisor struct {
	h     *head.Head
	arb   *elastic.Arbiter
	te    elastic.ThroughputEstimator
	known map[int]bool // burst sites with an open billing episode
	logf  func(string, ...any)
}

func newElasticAdvisor(h *head.Head, maxWorkers int, logf func(string, ...any)) (*elasticAdvisor, error) {
	arb, err := elastic.NewArbiter(elastic.ArbiterConfig{MaxWorkers: maxWorkers}, nil)
	if err != nil {
		return nil, err
	}
	return &elasticAdvisor{h: h, arb: arb, known: make(map[int]bool), logf: logf}, nil
}

// runElasticAdvisor ticks an advisor over h on the arbiter's cadence until
// ctx is cancelled.
func runElasticAdvisor(ctx context.Context, h *head.Head, maxWorkers int, logf func(string, ...any)) {
	a, err := newElasticAdvisor(h, maxWorkers, logf)
	if err != nil {
		logf("headnode: elastic advisor disabled: %v", err)
		return
	}
	start := time.Now()
	t := time.NewTicker(a.arb.Config().EffectiveInterval())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			a.tick(time.Since(start))
		}
	}
}

// tick is one arbiter step at session time now.
func (a *elasticAdvisor) tick(now time.Duration) {
	// Reconcile billing episodes with dynamic registrations: sites at or
	// above the burst base appear when an operator launches a worker and
	// vanish when a drain completes.
	current := make(map[int]bool)
	for _, site := range a.h.Sites() {
		if site >= elastic.DefaultWorkerSiteBase {
			current[site] = true
			if !a.known[site] {
				a.known[site] = true
				a.arb.WorkerLaunched(now, site)
				a.logf("headnode: elastic worker registered at site %d", site)
			}
		}
	}
	for site := range a.known {
		if !current[site] {
			delete(a.known, site)
			a.arb.WorkerStopped(now, site)
		}
	}
	loads := a.h.QueryLoads()
	var total int64
	for _, l := range loads {
		for _, b := range l.Remaining {
			total += b
		}
	}
	a.te.Observe(now, total, len(a.arb.ActiveSites()))
	dec := a.arb.StepWith(now, loads, a.te.Raw)
	switch dec.Action {
	case elastic.ScaleUp:
		a.logf("headnode: elastic advisory: launch %d more worker(s) — %s", dec.Delta, dec.Reason)
	case elastic.ScaleDown:
		for _, site := range dec.Sites {
			if _, err := a.h.DrainSite(site); err != nil {
				a.logf("headnode: elastic drain of site %d: %v", site, err)
			} else {
				a.logf("headnode: elastic scale-down: draining site %d — %s", site, dec.Reason)
			}
		}
	}
}

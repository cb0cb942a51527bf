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
	"flag"
	"fmt"
	"log"
	"net"
	"os"

	"repro/internal/appcfg"
	"repro/internal/chunk"
	"repro/internal/config"
	"repro/internal/daemon"
	"repro/internal/driver"
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
	spec := protocol.JobSpec{
		App:      *app,
		Params:   params,
		UnitSize: unitSize,
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
	// The headnode cannot start worker processes, so its burst loop only
	// advises: a scale-up is logged (an operator, or an autoscaler tailing
	// the log, starts more workernodes, which register as dynamic sites);
	// drains run through the head. The daemon has no calibrated topology
	// for the analytic model, so its arbiter has no Env and estimates from
	// the drain it observes between ticks.
	var burst *driver.BurstLoop
	if ef.Elastic {
		arb, err := elastic.NewArbiter(elastic.ArbiterConfig{MaxWorkers: ef.MaxWorkers}, nil)
		if err != nil {
			fail("headnode: %v", err)
		}
		burst = driver.StartBurstLoop(h, arb, nil, rt.Obs, log.Printf)
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
	if burst != nil {
		burst.Close()
	}
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

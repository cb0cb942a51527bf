// Hybrid kNN: the full cloud-bursting middleware, end to end, in one
// process — real sockets, real protocol, emulated WAN.
//
// The deployment mirrors the paper's Figure 2:
//
//   - an object-store daemon (the S3 stand-in) holds two thirds of the
//     dataset behind a bandwidth-shaped, high-latency link;
//   - a "local" cluster holds the remaining third on its storage node;
//   - a "cloud" cluster sits next to the object store;
//   - the head node assigns job groups on demand — local files first, then
//     stolen remote jobs — and merges the clusters' reduction objects.
//
// Run with:
//
//	go run ./examples/hybrid_knn
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/netem"
	"repro/internal/objstore"
	"repro/internal/protocol"
	"repro/internal/workload"
)

const (
	dim        = 8
	points     = 400_000
	kNeighbors = 10
	localFrac  = 1.0 / 3.0
)

func main() {
	// ---- dataset: 400k points split across a local dir-like source and
	// the object store ----
	gen := workload.UniformPoints{Seed: 2011, Dim: dim}
	ix, err := chunk.Layout("pts", points, gen.UnitSize(), points/8, points/64)
	if err != nil {
		log.Fatal(err)
	}
	all := chunk.NewMemSource(ix)
	if err := workload.Build(ix, gen, all); err != nil {
		log.Fatal(err)
	}
	placement := jobs.SplitByFraction(len(ix.Files), localFrac, 0, 1)

	// ---- object store behind an emulated WAN (16 MiB/s, 20 ms) ----
	shaper := netem.NewShaper(netem.Link{BytesPerSec: 16 << 20, Latency: 20 * time.Millisecond})
	osListener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	store := objstore.NewServer(objstore.NewMemBackend())
	store.Logf = nil
	go store.Serve(netem.Listener{Listener: osListener, Shaper: shaper})
	defer store.Close()
	osc := objstore.Dial("tcp", osListener.Addr().String(), 16)
	defer osc.Close()
	if err := objstore.Upload(osc, ix, all, "index.grix"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uploaded %.1f MiB to the object store (WAN-shaped at 16 MiB/s)\n",
		float64(ix.TotalBytes())/(1<<20))

	// ---- head node ----
	query := make([]float64, dim)
	for i := range query {
		query[i] = 0.5
	}
	params, err := apps.EncodeKNNParams(apps.KNNParams{K: kNeighbors, Dim: dim, Query: query})
	if err != nil {
		log.Fatal(err)
	}
	reducer, err := apps.NewKNNReducer(apps.KNNParams{K: kNeighbors, Dim: dim, Query: query})
	if err != nil {
		log.Fatal(err)
	}
	pool, err := jobs.NewPool(ix, placement, jobs.Options{})
	if err != nil {
		log.Fatal(err)
	}
	spec := protocol.JobSpec{App: apps.KNNReducerName, Params: params, UnitSize: ix.UnitSize}
	if err := head.EncodeIndexSpec(&spec, ix); err != nil {
		log.Fatal(err)
	}
	h, err := head.New(head.Config{ExpectClusters: 2})
	if err != nil {
		log.Fatal(err)
	}
	q, err := h.Admit(head.QueryConfig{Pool: pool, Reducer: reducer, Spec: spec, ExpectAll: true})
	if err != nil {
		log.Fatal(err)
	}
	headListener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go h.Serve(headListener)
	defer h.Close()

	// ---- two cluster workers over real sockets ----
	// Each master serves the head's queries until the head ends the session.
	runCluster := func(site int, name string) error {
		hc, err := cluster.DialAgent("tcp", headListener.Addr().String())
		if err != nil {
			return err
		}
		defer hc.Close()
		return cluster.RunAgent(context.Background(), cluster.AgentConfig{
			Site:             site,
			Name:             name,
			Cores:            4,
			RetrievalThreads: 4,
			Head:             hc,
			SourceBuilder: func(ix *chunk.Index) (map[int]chunk.Source, error) {
				return map[int]chunk.Source{
					0: all, // the local storage node (fast, in-memory here)
					1: &objstore.Source{Client: osc, Index: ix, Threads: 2},
				}, nil
			},
			SourceLabels: map[int]string{0: "local", 1: "s3"},
		})
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, name := range []string{"local", "cloud"} {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			errs[i] = runCluster(i, name)
		}(i, name)
	}

	// ---- results ----
	obj, reports, grTime, err := q.Wait(context.Background())
	elapsed := time.Since(start)
	h.Shutdown() // the one query is in: tell the masters to leave
	wg.Wait()
	if err != nil {
		log.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			log.Fatalf("cluster %d: %v", i, err)
		}
	}
	fmt.Printf("\nrun finished in %v (global reduction %v)\n", elapsed.Round(time.Millisecond), grTime.Round(time.Microsecond))
	for _, r := range reports {
		fmt.Printf("  %-6s %v; jobs: %d local + %d stolen\n", r.Cluster, r.Breakdown, r.Jobs.Local, r.Jobs.Stolen)
	}
	best := obj.(*apps.KNNObject).Best
	fmt.Printf("\n%d nearest neighbors of the center point:\n", len(best))
	for i, n := range best {
		fmt.Printf("  %2d. dist²=%.6f point=%.3v\n", i+1, n.Dist, n.Point)
	}
}

// Command workernode runs one cluster's worker process: the master (which
// requests job groups from the head on demand) plus the slave retrieval and
// processing threads. Data hosted at the cluster's own site is read from a
// local directory; remote-site data is fetched from the object-store daemon
// with multiple retrieval threads.
//
// Example (the "local" cluster, site 0):
//
//	workernode -head localhost:9400 -site 0 -name local -cores 8 \
//	           -data /data/points -s3 localhost:9444
//
// and the "cloud" cluster, site 1, whose data lives in the object store:
//
//	workernode -head localhost:9400 -site 1 -name cloud -cores 8 \
//	           -s3 localhost:9444
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"os"

	_ "repro/internal/apps" // register the built-in application reducers
	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/daemon"
	"repro/internal/objstore"
	"repro/internal/transport"
)

func main() {
	var (
		headAddr  = flag.String("head", "localhost:9400", "head node address")
		site      = flag.Int("site", 0, "storage site co-located with this cluster")
		name      = flag.String("name", "cluster", "cluster name for logs and reports")
		cores     = flag.Int("cores", 4, "processing threads")
		retrieval = flag.Int("retrieval", 4, "retrieval threads")
		dataDir   = flag.String("data", "", "directory with site-0 data files (local storage node)")
		s3Addr    = flag.String("s3", "", "object-store daemon address (site-1 data)")
		s3Threads = flag.Int("s3-threads", 2, "parallel range fetches per remote chunk")
	)
	var tn config.Tuning
	tn.RegisterFlags(flag.CommandLine)
	var df daemon.Flags
	df.Register(flag.CommandLine)
	flag.Parse()
	if *dataDir == "" && *s3Addr == "" {
		log.Fatal("workernode: at least one of -data or -s3 is required")
	}
	if err := tn.Validate(); err != nil {
		log.Fatalf("workernode: %v", err)
	}

	rt, err := daemon.Start("workernode", df, log.Printf)
	if err != nil {
		log.Fatalf("workernode: %v", err)
	}
	fail := func(format string, args ...any) {
		log.Printf(format, args...)
		_ = rt.Close()
		os.Exit(1)
	}

	useGob := tn.UseGob()

	hc, err := cluster.DialAgent("tcp", *headAddr)
	if err != nil {
		fail("workernode: %v", err)
	}
	hc.SetUseGob(useGob)
	defer hc.Close()

	var osc *objstore.Client
	if *s3Addr != "" {
		codec := transport.CodecBinary
		if useGob {
			codec = transport.CodecGob
		}
		osc = objstore.DialCodec("tcp", *s3Addr, *retrieval**s3Threads, codec)
		defer osc.Close()
	}

	sourceLabels := map[int]string{0: "local", 1: "s3"}

	// The master serves every query the head admits until the head ends the
	// session (Shutdown notice: clean exit) or a signal cancels the context —
	// an idle master's poll is held at the head for at most 20 ms, so either
	// is noticed promptly. Each finished query logs its "done:" line.
	err = cluster.RunAgent(rt.Context(), cluster.AgentConfig{
		Site:             *site,
		Name:             *name,
		Cores:            *cores,
		RetrievalThreads: *retrieval,
		Tuning:           tn,
		Head:             hc,
		SourceBuilder: func(ix *chunk.Index) (map[int]chunk.Source, error) {
			sources := make(map[int]chunk.Source)
			if *dataDir != "" {
				sources[0] = chunk.NewDirSource(*dataDir, ix)
			}
			if osc != nil {
				s3src := &objstore.Source{Client: osc, Index: ix, Threads: *s3Threads}
				sources[1] = s3src
				// The object store holds the whole dataset, so a worker with
				// no local copy (a cloud-burst cluster) still serves stolen
				// site-0 jobs by reading them from the store.
				if sources[0] == nil {
					sources[0] = s3src
					sourceLabels[0] = "s3"
				}
			}
			return sources, nil
		},
		SourceLabels: sourceLabels,
		Logf:         log.Printf,
		Obs:          rt.Obs,
	})
	switch {
	case err == nil:
		log.Printf("workernode: head ended the session; exiting")
	case errors.Is(err, context.Canceled):
		log.Printf("workernode: shutdown signal; exiting")
	default:
		fail("workernode: %v", err)
	}
	_ = rt.Close()
}

package main

import (
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"time"

	"repro/internal/bufpool"
	"repro/internal/chunk"
	"repro/internal/elastic"
	"repro/internal/experiments"
	"repro/internal/head"
	"repro/internal/hybridsim"
	"repro/internal/jobs"
	"repro/internal/objstore"
	"repro/internal/protocol"
	"repro/internal/stagecache"
	"repro/internal/transport"
	"repro/internal/workload"
)

// The microbenchmarks isolate one layer each, in the same process and right
// after the live run, so every layer number has a same-machine roofline next
// to it. Each is sized to take a few tens of milliseconds.

const microChunk = mib // payload size of the data-plane microbenchmarks

// mbPerS times fn moving bytes and returns MB/s.
func mbPerS(bytes int, fn func() error) (float64, error) {
	start := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	return float64(bytes) / 1e6 / time.Since(start).Seconds(), nil
}

// microCfg sizes the microbenchmarks: div is 1 at full scale and larger at
// tiny scale, where they only have to run.
type microCfg struct {
	seed uint64
	div  int
}

// n scales an iteration count or a byte size, keeping at least min.
func (c microCfg) n(full, min int) int { return max(full/c.div, min) }

// microbench runs every microbenchmark and returns metric name → value.
func microbench(seed uint64, tiny bool) (map[string]float64, error) {
	out := make(map[string]float64)
	cfg := microCfg{seed: seed, div: 1}
	if tiny {
		cfg.div = 16
	}
	steps := []func(map[string]float64, microCfg) error{
		microBaselines, microObjstore, microTransport, microProtocol,
		microStagecache, microFolds, microControl,
	}
	for _, step := range steps {
		if err := step(out, cfg); err != nil {
			return nil, err
		}
	}
	out["chunk.checksum_roofline"] = ratio(out["chunk.checksum_mb_s"], out["baseline.crc32c_mb_s"])
	out["objstore.get_mem_roofline"] = ratio(out["objstore.get_mem_mb_s"], out["baseline.loopback_tcp_mb_s"])
	out["transport.chunk_roundtrip_roofline"] = ratio(out["transport.chunk_roundtrip_mb_s"], out["baseline.loopback_tcp_mb_s"])
	return out, nil
}

func payload(seed uint64, n int) []byte {
	buf := make([]byte, n)
	workload.UniformPoints{Seed: seed, Dim: pointDim}.Fill(0, buf)
	return buf
}

// microBaselines measures this machine's rooflines: memcpy, raw loopback TCP
// in the shape of a chunk fetch (a one-byte request answered with 1 MiB) and
// hash/crc32's Castagnoli table, plus chunk.Checksum beside the last.
func microBaselines(out map[string]float64, mc microCfg) error {
	rounds := mc.n(16, 1)
	src := payload(mc.seed, 8*mib) // larger than the last-level cache slice of one core
	dst := make([]byte, len(src))
	v, _ := mbPerS(rounds*len(src), func() error {
		for i := 0; i < rounds; i++ {
			copy(dst, src)
		}
		return nil
	})
	out["baseline.memcpy_gb_s"] = v / 1000

	table := crc32.MakeTable(crc32.Castagnoli)
	var sink uint32
	out["baseline.crc32c_mb_s"], _ = mbPerS(rounds*len(src), func() error {
		for i := 0; i < rounds; i++ {
			sink += crc32.Checksum(src, table)
		}
		return nil
	})
	out["chunk.checksum_mb_s"], _ = mbPerS(rounds*len(src), func() error {
		for i := 0; i < rounds; i++ {
			sink += chunk.Checksum(src)
		}
		return nil
	})
	_ = sink

	l, err := listen()
	if err != nil {
		return err
	}
	defer l.Close()
	total := mc.n(64*mib, microChunk)
	sent := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			sent <- err
			return
		}
		defer c.Close()
		var req [1]byte
		for n := 0; n < total; n += microChunk {
			if _, err := io.ReadFull(c, req[:]); err != nil {
				sent <- err
				return
			}
			if _, err := c.Write(src[:microChunk]); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return err
	}
	defer c.Close()
	out["baseline.loopback_tcp_mb_s"], err = mbPerS(total, func() error {
		for n := 0; n < total; n += microChunk {
			if _, err := c.Write(dst[:1]); err != nil {
				return err
			}
			if _, err := io.ReadFull(c, dst[:microChunk]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return <-sent
}

// microObjstore measures range GETs from a memory and a directory backend,
// PUTs and Stat round trips over loopback.
func microObjstore(out map[string]float64, mc microCfg) error {
	objects := mc.n(32, 2)
	data := payload(mc.seed, microChunk)
	dir, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for name, backend := range map[string]objstore.Backend{
		"mem": objstore.NewMemBackend(), "dir": objstore.DirBackend{Root: dir},
	} {
		err := func() error {
			srv := objstore.NewServer(backend)
			srv.Logf = nil
			l, err := listen()
			if err != nil {
				return err
			}
			go func() { _ = srv.Serve(l) }()
			client := objstore.Dial("tcp", l.Addr().String(), 1)
			defer srv.Close()
			defer client.Close() // before srv.Close: LIFO
			put, err := mbPerS(objects*len(data), func() error {
				for i := 0; i < objects; i++ {
					if err := client.Put(fmt.Sprintf("o%d", i), data); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			get, err := mbPerS(2*objects*len(data), func() error {
				for i := 0; i < 2*objects; i++ {
					b, err := client.GetRange(fmt.Sprintf("o%d", i%objects), 0, int64(len(data)))
					if err != nil {
						return err
					}
					bufpool.Put(b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			out["objstore.get_"+name+"_mb_s"] = get
			if name == "mem" {
				out["objstore.put_mb_s"] = put
				stats := mc.n(500, 10)
				start := time.Now()
				for i := 0; i < stats; i++ {
					if _, err := client.Stat("o0"); err != nil {
						return err
					}
				}
				out["objstore.stat_rtt_us"] = float64(time.Since(start).Microseconds()) / float64(stats)
			}
			return nil
		}()
		if err != nil {
			return err
		}
	}
	return nil
}

// microTransport measures the binary codec over loopback TCP: a request
// answered with a chunk-sized payload, and a small request/reply round trip.
func microTransport(out map[string]float64, mc microCfg) error {
	l, err := listen()
	if err != nil {
		return err
	}
	defer l.Close()
	data := payload(mc.seed, microChunk)
	served := make(chan error, 1)
	go func() {
		raw, err := l.Accept()
		if err != nil {
			served <- err
			return
		}
		c := transport.NewWith(raw, transport.CodecBinary)
		defer c.Close()
		for {
			msg, err := c.Recv()
			if err != nil {
				served <- nil // the client hung up
				return
			}
			var reply protocol.Message = protocol.StatResp{Size: 1}
			if _, ok := msg.(protocol.GetReq); ok {
				reply = protocol.GetResp{Data: data}
			}
			if err := c.Send(reply); err != nil {
				served <- err
				return
			}
		}
	}()
	c, err := transport.DialWith("tcp", l.Addr().String(), transport.CodecBinary)
	if err != nil {
		return err
	}
	chunks, smalls := mc.n(64, 2), mc.n(1000, 10)
	out["transport.chunk_roundtrip_mb_s"], err = mbPerS(chunks*len(data), func() error {
		for i := 0; i < chunks; i++ {
			if err := c.Send(protocol.GetReq{Key: "k", Len: int64(len(data))}); err != nil {
				return err
			}
			msg, err := c.Recv()
			if err != nil {
				return err
			}
			bufpool.Put(msg.(protocol.GetResp).Data)
		}
		return nil
	})
	if err == nil {
		start := time.Now()
		for i := 0; i < smalls && err == nil; i++ {
			if err = c.Send(protocol.StatReq{Key: "k"}); err == nil {
				_, err = c.Recv()
			}
		}
		out["transport.small_rtt_us"] = float64(time.Since(start).Microseconds()) / float64(smalls)
	}
	c.Close()
	if serr := <-served; err == nil {
		err = serr
	}
	return err
}

// microProtocol measures AppendFrame/DecodeFrame on a four-job poll reply.
func microProtocol(out map[string]float64, mc microCfg) error {
	reply := protocol.PollReply{Queries: []protocol.QueryJobs{{Query: 1}}}
	for i := 0; i < 4; i++ {
		reply.Queries[0].Jobs = append(reply.Queries[0].Jobs, jobs.Job{
			ID: i, Site: i % 2, Ref: chunk.Ref{File: i, Seq: i, Offset: int64(i) * mib, Size: mib, Units: mib / 32},
		})
	}
	rounds := mc.n(20000, 100)
	var frame []byte
	var err error
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if frame, err = protocol.AppendFrame(frame[:0], reply); err != nil {
			return err
		}
	}
	out["protocol.encode_poll_ns"] = float64(time.Since(start).Nanoseconds()) / float64(rounds)
	start = time.Now()
	for i := 0; i < rounds; i++ {
		if _, _, err = protocol.DecodeFrame(frame); err != nil {
			return err
		}
	}
	out["protocol.decode_poll_ns"] = float64(time.Since(start).Nanoseconds()) / float64(rounds)
	return nil
}

// memDataset builds a small in-memory dataset.
func memDataset(gen workload.Generator, bytes, chunkBytes int) (*chunk.Index, *chunk.MemSource, error) {
	units := bytes / gen.UnitSize()
	ix, err := chunk.Layout("m-", int64(units), gen.UnitSize(), units/4, chunkBytes/gen.UnitSize())
	if err != nil {
		return nil, nil, err
	}
	mem := chunk.NewMemSource(ix)
	return ix, mem, workload.Build(ix, gen, mem)
}

// microStagecache measures the cache's miss path (origin read, install) and
// its memory-hit path over an in-memory origin.
func microStagecache(out map[string]float64, mc microCfg) error {
	size := mc.n(32*mib, 4*mib)
	ix, mem, err := memDataset(workload.UniformPoints{Seed: mc.seed, Dim: pointDim}, size, microChunk)
	if err != nil {
		return err
	}
	cache := stagecache.New(stagecache.Config{CapacityBytes: 2 * int64(size)}, nil)
	defer cache.Close()
	src := cache.Wrap(0, mem)
	pass := func() error {
		for _, ref := range ix.AllRefs() {
			b, err := src.ReadChunk(ref)
			if err != nil {
				return err
			}
			bufpool.Put(b)
		}
		return nil
	}
	if out["stagecache.miss_mb_s"], err = mbPerS(size, pass); err != nil {
		return err
	}
	out["stagecache.hit_mb_s"], err = mbPerS(size, pass)
	return err
}

// microFolds measures each application's fold on one worker with core.Run.
func microFolds(out map[string]float64, mc microCfg) error {
	points := workload.UniformPoints{Seed: mc.seed, Dim: pointDim}
	ix, mem, err := memDataset(points, mc.n(16*mib, 4*mib), microChunk)
	if err != nil {
		return err
	}
	knn, err := newKNN(mc.seed, pointDim, 10)
	if err != nil {
		return err
	}
	hist, err := newHistogram(pointDim, 64, ix.TotalUnits())
	if err != nil {
		return err
	}
	quarter := *ix // kmeans folds an order of magnitude slower; give it one file of four
	quarter.Files = ix.Files[:1]
	km, err := newKMeans(&quarter, mem, 32, pointDim)
	if err != nil {
		return err
	}
	edgeBytes := mc.n(8*mib, 4*mib)
	graph := &workload.PowerLawGraph{Seed: mc.seed, Nodes: 64 << 10, Edges: int64(edgeBytes / workload.EdgeUnitSize)}
	gix, gmem, err := memDataset(graph, edgeBytes, microChunk)
	if err != nil {
		return err
	}
	pr, err := newPageRank(graph, 0.85)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name string
		a    *appRun
		ix   *chunk.Index
		src  chunk.Source
	}{
		{"apps.knn_fold_mb_s", knn, ix, mem},
		{"apps.histogram_fold_mb_s", hist, ix, mem},
		{"apps.kmeans_fold_mb_s", km, &quarter, mem},
		{"apps.pagerank_fold_mb_s", pr, gix, gmem},
	} {
		out[c.name], err = mbPerS(int(c.ix.TotalBytes()), func() error {
			_, err := reference(c.a.reducer, c.ix, c.src)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// microControl measures the control plane without a network: head.PollFrom
// over 4 sites × 4 queries, the bare jobs.Pool, one arbiter step over eight
// queries, and the simulator's event loop.
func microControl(out map[string]float64, mc microCfg) error {
	const sites, queries, batch = 4, 4, 8
	gen := workload.UniformPoints{Seed: mc.seed, Dim: pointDim}
	units := mc.n(4096, 64) * sites // one 32-byte unit per chunk: 4096 jobs per site
	ix, err := chunk.Layout("c-", int64(units), gen.UnitSize(), units/sites, 1)
	if err != nil {
		return err
	}
	placement := make(jobs.Placement, len(ix.Files))
	for i := range placement {
		placement[i] = i
	}

	pool, err := jobs.NewPool(ix, placement, jobs.Options{})
	if err != nil {
		return err
	}
	start := time.Now()
	granted := 0
	for site := 0; ; site = (site + 1) % sites {
		js := pool.Assign(site, batch)
		if len(js) == 0 {
			break
		}
		for _, j := range js {
			if _, err := pool.Commit(site, j); err != nil {
				return err
			}
		}
		granted += len(js)
	}
	out["jobs.pool_grants_per_s"] = float64(granted) / time.Since(start).Seconds()

	h, err := head.New(head.Config{ExpectClusters: sites})
	if err != nil {
		return err
	}
	defer h.Shutdown()
	for site := 0; site < sites; site++ {
		if _, err := h.RegisterSite(protocol.Hello{Site: site, Cluster: fmt.Sprint("s", site), Cores: 1, Proto: protocol.ProtoMulti}); err != nil {
			return err
		}
	}
	hist, err := newHistogram(pointDim, 64, ix.TotalUnits())
	if err != nil {
		return err
	}
	spec := protocol.JobSpec{App: hist.app, Params: hist.params, UnitSize: ix.UnitSize}
	if err := head.EncodeIndexSpec(&spec, ix); err != nil {
		return err
	}
	for q := 0; q < queries; q++ {
		pool, err := jobs.NewPool(ix, placement, jobs.Options{})
		if err != nil {
			return err
		}
		if _, err := h.Admit(head.QueryConfig{Pool: pool, Reducer: hist.reducer, Spec: spec}); err != nil {
			return err
		}
	}
	start = time.Now()
	granted = 0
	for site, idle := 0, 0; idle < sites; site = (site + 1) % sites {
		rep, err := h.PollFrom(protocol.PollRequest{Site: site, N: batch})
		if err != nil {
			return err
		}
		n := 0
		for _, qj := range rep.Queries {
			if _, err := h.CompleteQueryJobs(qj.Query, site, qj.Jobs); err != nil {
				return err
			}
			n += len(qj.Jobs)
		}
		granted += n
		if n == 0 {
			idle++
		} else {
			idle = 0
		}
	}
	out["head.poll_grants_per_s"] = float64(granted) / time.Since(start).Seconds()

	base := experiments.Config(experiments.KNN, experiments.Env5050, experiments.SimOptions{})
	arb, err := elastic.NewArbiter(elastic.ArbiterConfig{}, &elastic.Env{
		Base:        base,
		Worker:      hybridsim.ClusterModel{Cores: 4, CoreSpeed: 1, RetrievalThreads: 2},
		WorkerPaths: map[int]hybridsim.PathModel{0: {PerStream: 20 * mib}, 1: {PerStream: 20 * mib}},
	})
	if err != nil {
		return err
	}
	loads := make([]elastic.QueryLoad, 8)
	for i := range loads {
		loads[i] = elastic.QueryLoad{
			Query: i, Weight: 1 + i%2,
			Policy:    &elastic.Policy{Deadline: time.Duration(10+i) * time.Minute, MaxWorkers: 4},
			Remaining: map[int]int64{0: int64(i+1) << 30, 1: int64(8-i) << 30},
		}
	}
	steps := mc.n(50, 2)
	start = time.Now()
	for i := 0; i < steps; i++ {
		arb.Step(time.Duration(i)*time.Second, loads)
	}
	out["elastic.arbiter_step_ns"] = float64(time.Since(start).Nanoseconds()) / float64(steps)

	start = time.Now()
	sim, err := experiments.RunEnv(experiments.KNN, experiments.Env5050)
	if err != nil {
		return err
	}
	simJobs := 0
	for _, c := range sim.Sim.Clusters {
		simJobs += c.Jobs.Total()
	}
	out["hybridsim.sim_jobs_per_s"] = float64(simJobs) / time.Since(start).Seconds()
	return nil
}

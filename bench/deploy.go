package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/netem"
	"repro/internal/objstore"
	"repro/internal/stagecache"
	"repro/internal/workload"
)

// dataSites are the storage sites of every workload: 0 is the local
// cluster's, 1 the cloud's.
var dataSites = []int{0, 1}

// deployment is one live head/master/object-store deployment inside this
// process, wired over loopback TCP.
type deployment struct {
	w  *workloadDef
	sz sizing
	p  *probes

	ix        *chunk.Index
	mem       *chunk.MemSource // the whole dataset: reference input, and the source of Mem workloads
	placement jobs.Placement
	graph     *workload.PowerLawGraph // graph datasets only

	h           *head.Head
	headRead    atomic.Int64 // bytes the head read from its masters
	headWritten atomic.Int64 // bytes the head wrote to them
	wanBytes    atomic.Int64 // bytes written through a WAN shaper
	wanRate     float64      // summed rate of the WAN shapers, bytes/s

	serving   sync.WaitGroup // the head's and the stores' accept loops
	cancel    context.CancelFunc
	agentDone chan error
	clients   []*timedClient
	agents    []*cluster.RemoteAgent
	relays    []*relay
	stores    map[int]*store
	dialed    []*objstore.Client
	cache     *cacheSlot
}

// store is one data site's object store with its near (own cluster) and far
// (cross-site) listeners.
type store struct {
	server    *objstore.Server
	near, far net.Listener
}

// cacheSlot lets a rep start from a fresh stagecache while the agent keeps
// the one chunk.Source it was started with.
type cacheSlot struct {
	site    int
	origin  chunk.Source
	cfg     stagecache.Config
	current atomic.Pointer[cacheView]
}

type cacheView struct {
	cache *stagecache.Cache
	src   chunk.Source
}

func (s *cacheSlot) ReadChunk(ref chunk.Ref) ([]byte, error) {
	return s.current.Load().src.ReadChunk(ref)
}

// fresh swaps in an empty cache and closes the previous one. Call it only
// between queries, when no read is in flight.
func (s *cacheSlot) fresh() {
	c := stagecache.New(s.cfg, nil)
	old := s.current.Swap(&cacheView{cache: c, src: c.Wrap(s.site, s.origin)})
	if old != nil {
		old.cache.Close()
	}
}

func (s *cacheSlot) stats() stagecache.Stats { return s.current.Load().cache.Snapshot() }

// dataset lays out and describes the workload's input for one seed.
func (d *deployment) dataset(seed uint64) (workload.Generator, error) {
	w, sz := d.w, d.sz
	var gen workload.Generator
	switch w.Dataset {
	case "uniform":
		gen = workload.UniformPoints{Seed: seed, Dim: pointDim}
	case "clustered":
		gen = workload.ClusteredPoints{Seed: seed, Dim: pointDim, K: 32, Spread: 0.05}
	case "graph":
		d.graph = &workload.PowerLawGraph{Seed: seed, Nodes: sz.graphNodes(), Edges: sz.bytes(w) / workload.EdgeUnitSize}
		gen = d.graph
	default:
		return nil, fmt.Errorf("unknown dataset %q", w.Dataset)
	}
	units := sz.bytes(w) / int64(gen.UnitSize())
	ix, err := chunk.Layout(w.Name+"-", units, gen.UnitSize(), int(units)/files, sz.chunkBytes(w)/gen.UnitSize())
	if err != nil {
		return nil, err
	}
	d.ix = ix
	d.placement = jobs.SplitByFraction(len(ix.Files), w.LocalShare, 0, 1)
	d.mem = chunk.NewMemSource(ix)
	return gen, nil
}

// uploadSink stores every generated file in memory and, for object-store
// workloads, PUTs it to the store of the site it is placed at.
type uploadSink struct {
	d       *deployment
	fileOf  map[string]int
	uplinks map[int]*objstore.Client
}

func (s uploadSink) WriteFile(name string, data []byte) error {
	if err := s.d.mem.WriteFile(name, data); err != nil {
		return err
	}
	if s.uplinks == nil {
		return nil
	}
	return s.uplinks[s.d.placement[s.fileOf[name]]].Put(name, data)
}

// listen opens a loopback listener.
func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// startStore boots one site's object store: a near listener for the site's
// own cluster and a far one, counted as WAN traffic, for everyone else.
func (d *deployment) startStore(near, far *netem.Shaper) (*store, error) {
	s := &store{server: objstore.NewServer(objstore.NewMemBackend())}
	s.server.Logf = nil
	var err error
	if s.near, err = listen(); err != nil {
		return nil, err
	}
	if s.far, err = listen(); err != nil {
		s.near.Close()
		return nil, err
	}
	var ignored atomic.Int64
	serve := func(l net.Listener) {
		d.serving.Add(1)
		go func() {
			defer d.serving.Done()
			_ = s.server.Serve(l) // returns when teardown closes the listener
		}()
	}
	serve(netem.Listener{Listener: countListener{s.far, &ignored, &d.wanBytes}, Shaper: far})
	serve(netem.Listener{Listener: s.near, Shaper: near})
	return s, nil
}

// dial opens a pooled client to a store as seen from a cluster at site from.
func (d *deployment) dial(dataSite, from int) *objstore.Client {
	l := d.stores[dataSite].far
	if dataSite == from {
		l = d.stores[dataSite].near
	}
	c := objstore.Dial("tcp", l.Addr().String(), storeConns)
	d.dialed = append(d.dialed, c)
	return c
}

func shaper(l netem.Link) *netem.Shaper {
	if l == (netem.Link{}) {
		return nil
	}
	return netem.NewShaper(l)
}

// setup builds the dataset, boots the stores, the head and the masters, and
// returns once every master has registered. On error it tears down what it
// started.
func setup(w *workloadDef, sz sizing, seed uint64, p *probes) (d *deployment, err error) {
	d = &deployment{w: w, sz: sz, p: p, stores: make(map[int]*store)}
	defer func() {
		if err != nil {
			d.teardown()
			d = nil
		}
	}()
	gen, err := d.dataset(seed)
	if err != nil {
		return nil, err
	}

	// Object stores, one per data site, and the dataset.
	sink := uploadSink{d: d, fileOf: make(map[string]int)}
	for fi, f := range d.ix.Files {
		sink.fileOf[f.Name] = fi
	}
	if !w.Mem {
		cross := shaper(sz.link(w.Cross)) // one bucket for both directions
		if cross != nil {
			d.wanRate += cross.Link().BytesPerSec
		}
		sink.uplinks = make(map[int]*objstore.Client)
		for _, site := range dataSites {
			if d.stores[site], err = d.startStore(shaper(sz.link(w.Near)), cross); err != nil {
				return nil, err
			}
			sink.uplinks[site] = d.dial(site, site)
		}
	}
	if err = workload.Build(d.ix, gen, sink); err != nil {
		return nil, err
	}
	if err = d.ix.ComputeChecksums(d.mem); err != nil {
		return nil, err
	}

	// Head: a pure multi-query head behind a byte-counting listener.
	if d.h, err = head.New(head.Config{ExpectClusters: len(w.Clusters)}); err != nil {
		return nil, err
	}
	hl, err := listen()
	if err != nil {
		return nil, err
	}
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		_ = d.h.Serve(countListener{hl, &d.headRead, &d.headWritten}) // returns on Head.Close
	}()

	// Masters.
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	d.agentDone = make(chan error, len(w.Clusters))
	jobOf := jobIndex(d.ix)
	for _, c := range w.Clusters {
		headAddr := hl.Addr().String()
		if hlink := sz.link(w.Head); hlink != (netem.Link{}) {
			r, err := newRelay(headAddr, netem.NewShaper(hlink), netem.NewShaper(hlink), &d.wanBytes)
			if err != nil {
				return nil, err
			}
			d.relays = append(d.relays, r)
			d.wanRate += 2 * hlink.BytesPerSec
			headAddr = r.Addr()
		}
		agent, err := cluster.DialAgent("tcp", headAddr)
		if err != nil {
			return nil, err
		}
		d.agents = append(d.agents, agent)
		client := &timedClient{inner: agent, p: p, site: c.Site, registered: make(chan struct{})}
		d.clients = append(d.clients, client)

		sources := make(map[int]chunk.Source)
		for _, site := range dataSites {
			if w.Mem {
				sources[site] = &timedSource{inner: d.mem, p: p, l: &p.memRead, name: "chunk.mem_read", site: c.Site, jobOf: jobOf}
				continue
			}
			var src chunk.Source = &timedSource{
				inner: &objstore.Source{Client: d.dial(site, c.Site), Index: d.ix, Threads: 1},
				p:     p, l: &p.objRead, name: "objstore.read", site: c.Site, jobOf: jobOf,
			}
			if w.CacheShare > 0 && site != c.Site {
				d.cache = &cacheSlot{site: site, origin: src, cfg: stagecache.Config{
					CapacityBytes: int64(float64(sz.bytes(w)) * w.CacheShare),
					Replica:       d.dial(c.Site, c.Site),
				}}
				d.cache.fresh()
				src = &timedSource{inner: d.cache, p: p, l: &p.cacheRead, name: "stagecache.read", site: c.Site, jobOf: jobOf}
			}
			sources[site] = src
		}
		cfg := cluster.AgentConfig{
			Site: c.Site, Name: fmt.Sprintf("site%d", c.Site), Cores: c.Cores,
			RetrievalThreads: retrievalThreads, Sources: sources, Head: client,
		}
		go func() { d.agentDone <- cluster.RunAgent(ctx, cfg) }()
	}
	for _, c := range d.clients {
		select {
		case <-c.registered:
		case err := <-d.agentDone:
			d.agentDone <- err // teardown still expects one result per master
			return nil, fmt.Errorf("master exited during set-up: %v", err)
		}
	}
	return d, nil
}

// teardown stops the deployment and waits for every goroutine it started, in
// the order that cannot hang: masters
// first (a head shutdown notice ends their poll loops), their head sessions
// before Head.Close (which waits for its connection handlers), and every
// object-store client before its Server.Close (an idle pooled connection
// would hold the server for its idle deadline).
func (d *deployment) teardown() error {
	var errs []error
	if d.h != nil {
		d.h.Shutdown()
	}
	if d.cancel != nil {
		for range d.clients {
			if err := <-d.agentDone; err != nil && !errors.Is(err, context.Canceled) {
				errs = append(errs, err)
			}
		}
		d.cancel()
	}
	for _, a := range d.agents {
		a.Close()
	}
	for _, r := range d.relays {
		r.Close()
	}
	if d.h != nil {
		d.h.Close()
	}
	if d.cache != nil {
		d.cache.current.Load().cache.Close()
	}
	for _, c := range d.dialed {
		c.Close()
	}
	for _, s := range d.stores {
		s.near.Close()
		s.far.Close()
		s.server.Close()
	}
	// The accept loops hold the stores, and so the dataset, until they return.
	d.serving.Wait()
	return errors.Join(errs...)
}

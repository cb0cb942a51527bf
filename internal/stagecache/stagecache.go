// Package stagecache is the burst-side partition cache: a read-through
// tier between a worker's retrieval path and a remote origin source, with
// an in-memory level (size-classed bufpool buffers, LRU) spilling to a
// cloud-local object-store replica, plus an asynchronous pre-stager that
// copies hot partitions into the replica ahead of need.
//
// The cache exists for retrieval-bound workloads: once a chunk has crossed
// the WAN one time — pulled by a miss or pushed by the pre-stager — every
// subsequent read is served at cloud-local rates instead of drawing origin
// egress. Iterative applications (kmeans, pagerank re-read the full dataset
// every pass) hit the cache for almost all of pass 2+.
//
// Failure model: the cache is strictly an accelerator. A replica error —
// crash, timeout, missing key — falls back to the origin source, so a
// worker with a dead replica is merely slow, never wrong. The pre-stager
// logs and skips on errors for the same reason.
package stagecache

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/chunk"
	"repro/internal/obs"
)

// Replica is the cloud-local spill store. objstore.Client satisfies it.
type Replica interface {
	Put(key string, data []byte) error
	Get(key string) ([]byte, error)
}

// Config configures a Cache.
type Config struct {
	// CapacityBytes bounds the in-memory tier (LRU past it). Default 256 MiB.
	CapacityBytes int64
	// Replica, when non-nil, receives evicted-tier spills and pre-staged
	// partitions; in-memory misses probe it before falling back to the
	// origin. Nil keeps the cache purely in-memory.
	Replica Replica
	// SpillDepth bounds the async replica-write queue; writes past it are
	// dropped (the chunk stays cached in memory only). Default 64.
	SpillDepth int
	// SpillWorkers is the number of async replica writers. Default 2.
	SpillWorkers int
	// Logf receives staging/spill errors; nil discards them.
	Logf func(format string, args ...any)
}

// Key identifies one cached chunk: the dataset, its origin site and the
// chunk's coordinates in it, so equal-layout datasets never share an entry.
type Key struct {
	Dataset         uint64
	Site, File, Seq int
}

func (k Key) replicaKey() string {
	return fmt.Sprintf("stage/%x/%d/%d/%d", k.Dataset, k.Site, k.File, k.Seq)
}

type entry struct {
	key  Key
	data []byte // cache-owned bufpool buffer
	elem *list.Element
}

type spillReq struct {
	key  Key
	data []byte // spill-owned copy, returned to bufpool after the Put
}

type prestageReq struct {
	dataset uint64
	site    int
	src     chunk.Source
	refs    []chunk.Ref
}

// metrics holds the pre-resolved instruments; all nil-safe, so a Cache
// built with a nil registry pays only nil-receiver calls.
type metrics struct {
	hits        *obs.Counter
	misses      *obs.Counter
	bytesStaged *obs.Counter
	evictions   *obs.Counter
	resident    *obs.Gauge
}

// Cache is the burst-side partition cache. Safe for concurrent use. The
// zero value is not usable — build one with New. A nil *Cache is valid and
// inert: Wrap returns the source unchanged and Prestage/Close are no-ops,
// so callers thread an optional cache without branching.
type Cache struct {
	cfg Config
	m   metrics

	mu        sync.Mutex
	entries   map[Key]*entry
	lru       *list.List // front = most recent
	resident  int64
	inReplica map[Key]bool
	flight    map[Key]*call
	// Mirror counters readable under the lock, so Snapshot works with a
	// nil registry too.
	hits, missesN, staged, evictionsN int64

	spillCh    chan spillReq
	prestageCh chan prestageReq
	closeOnce  sync.Once
	closed     chan struct{}
	wg         sync.WaitGroup
}

// call is one in-flight origin read shared by concurrent readers of the
// same chunk (per-key singleflight). When waiters joined, the leader parks
// an independent plain-allocated copy in data — never a pooled buffer, so
// waiters can copy out of it without racing evictions.
type call struct {
	done    chan struct{}
	waiters int
	data    []byte
	err     error
}

// New builds a cache. reg may be nil (metrics become no-ops).
func New(cfg Config, reg *obs.Registry) *Cache {
	if cfg.CapacityBytes <= 0 {
		cfg.CapacityBytes = 256 << 20
	}
	if cfg.SpillDepth <= 0 {
		cfg.SpillDepth = 64
	}
	if cfg.SpillWorkers <= 0 {
		cfg.SpillWorkers = 2
	}
	c := &Cache{
		cfg:       cfg,
		entries:   make(map[Key]*entry),
		lru:       list.New(),
		inReplica: make(map[Key]bool),
		flight:    make(map[Key]*call),
		closed:    make(chan struct{}),
		m: metrics{
			hits:        reg.Counter("stagecache_hits_total"),
			misses:      reg.Counter("stagecache_misses_total"),
			bytesStaged: reg.Counter("stagecache_bytes_staged_total"),
			evictions:   reg.Counter("stagecache_evictions_total"),
			resident:    reg.Gauge("stagecache_resident_bytes"),
		},
	}
	if cfg.Replica != nil {
		c.spillCh = make(chan spillReq, cfg.SpillDepth)
		for i := 0; i < cfg.SpillWorkers; i++ {
			c.wg.Add(1)
			go c.spillLoop()
		}
	}
	c.prestageCh = make(chan prestageReq, 8)
	c.wg.Add(1)
	go c.prestageLoop()
	return c
}

// Close stops the background workers and releases every cached buffer.
func (c *Cache) Close() {
	if c == nil {
		return
	}
	c.closeOnce.Do(func() {
		close(c.closed)
		c.wg.Wait()
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, e := range c.entries {
			bufpool.Put(e.data)
		}
		c.entries = make(map[Key]*entry)
		c.lru.Init()
		c.resident = 0
		c.m.resident.Set(0)
	})
}

func (c *Cache) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Stats is a point-in-time snapshot of cumulative cache activity.
type Stats struct {
	Hits, Misses  int64
	BytesStaged   int64
	Evictions     int64
	ResidentBytes int64
}

// Snapshot returns current cache statistics; it works with or without a
// metrics registry (the cache mirrors its counters internally).
func (c *Cache) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.missesN,
		BytesStaged:   c.staged,
		Evictions:     c.evictionsN,
		ResidentBytes: c.resident,
	}
}

// Wrap is WrapDataset for dataset 0, for a cache that holds one dataset.
func (c *Cache) Wrap(site int, src chunk.Source) chunk.Source { return c.WrapDataset(0, site, src) }

// WrapDataset returns a read-through view of src for the chunks of dataset
// (an identity of its contents, e.g. a hash of its index) whose origin is
// site. A nil cache returns src unchanged (the disabled fast path).
func (c *Cache) WrapDataset(dataset uint64, site int, src chunk.Source) chunk.Source {
	if c == nil || src == nil {
		return src
	}
	return &cachedSource{c: c, dataset: dataset, site: site, origin: src}
}

type cachedSource struct {
	c       *Cache
	dataset uint64
	site    int
	origin  chunk.Source
}

// ReadChunk implements chunk.Source: memory tier, then replica, then the
// origin (read-through). The returned buffer is caller-owned, like every
// chunk.Source.
func (s *cachedSource) ReadChunk(ref chunk.Ref) ([]byte, error) {
	return s.c.read(Key{Dataset: s.dataset, Site: s.site, File: ref.File, Seq: ref.Seq}, ref, s.origin)
}

func (c *Cache) read(key Key, ref chunk.Ref, origin chunk.Source) ([]byte, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		// Memory hit: copy out under the lock — the entry's buffer stays
		// cache-owned and may be evicted (and pooled) the moment we unlock.
		out := bufpool.Get(len(e.data))
		copy(out, e.data)
		c.lru.MoveToFront(e.elem)
		c.hits++
		c.mu.Unlock()
		c.m.hits.Inc()
		return out, nil
	}
	tryReplica := c.cfg.Replica != nil && c.inReplica[key]
	// Singleflight: the first reader of a missing key fetches; concurrent
	// readers of the SAME key wait and copy its result.
	if cl, ok := c.flight[key]; ok {
		cl.waiters++
		c.mu.Unlock()
		<-cl.done
		if cl.err != nil {
			return nil, cl.err
		}
		// A coalesced read: served from the leader's fetch with no origin
		// traffic of its own, so it counts as a hit — every successful read
		// increments exactly one of hits/misses.
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		c.m.hits.Inc()
		out := bufpool.Get(len(cl.data))
		copy(out, cl.data)
		return out, nil
	}
	cl := &call{done: make(chan struct{})}
	c.flight[key] = cl
	c.mu.Unlock()

	data, fromReplica, err := c.fetch(key, ref, origin, tryReplica)
	if err != nil {
		c.mu.Lock()
		delete(c.flight, key)
		c.mu.Unlock()
		cl.err = err
		close(cl.done)
		return nil, err
	}
	// Install a cache-owned copy, hand the fetched buffer to the caller.
	// Waiters get their own plain copy — the installed entry can be
	// evicted (and its buffer recycled) before they wake.
	c.mu.Lock()
	c.installLocked(key, data)
	if cl.waiters > 0 {
		cp := make([]byte, len(data))
		copy(cp, data)
		cl.data = cp
	}
	delete(c.flight, key)
	c.mu.Unlock()
	close(cl.done)
	if !fromReplica {
		c.spill(key, data)
	}
	return data, nil
}

// fetch resolves a miss: replica first (when the key is believed staged),
// origin on any replica failure — the cache accelerates, never gates.
func (c *Cache) fetch(key Key, ref chunk.Ref, origin chunk.Source, tryReplica bool) ([]byte, bool, error) {
	if tryReplica {
		data, err := c.cfg.Replica.Get(key.replicaKey())
		if err == nil && int64(len(data)) == ref.Size {
			c.m.hits.Inc()
			c.mu.Lock()
			c.hits++
			c.mu.Unlock()
			return data, true, nil
		}
		if err != nil {
			c.logf("stagecache: replica get %s: %v (falling back to origin)", key.replicaKey(), err)
		} else {
			c.logf("stagecache: replica get %s: %d bytes, want %d (falling back to origin)",
				key.replicaKey(), len(data), ref.Size)
			bufpool.Put(data)
		}
		c.mu.Lock()
		delete(c.inReplica, key)
		c.mu.Unlock()
	}
	c.m.misses.Inc()
	c.mu.Lock()
	c.missesN++
	c.mu.Unlock()
	data, err := origin.ReadChunk(ref)
	if err != nil {
		return nil, false, err
	}
	return data, false, nil
}

// installLocked admits one chunk to the memory tier (a cache-owned copy of
// data), evicting LRU entries past capacity.
func (c *Cache) installLocked(key Key, data []byte) {
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		return
	}
	size := int64(len(data))
	if size > c.cfg.CapacityBytes {
		return // larger than the whole tier: never admit
	}
	for c.resident+size > c.cfg.CapacityBytes && c.lru.Len() > 0 {
		back := c.lru.Back()
		victim := back.Value.(*entry)
		c.lru.Remove(back)
		delete(c.entries, victim.key)
		c.resident -= int64(len(victim.data))
		bufpool.Put(victim.data)
		c.evictionsN++
		c.m.evictions.Inc()
	}
	own := bufpool.Get(len(data))
	copy(own, data)
	e := &entry{key: key, data: own}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.resident += size
	c.m.resident.Set(c.resident)
}

// spill enqueues an async replica write of a fresh origin read. The queue
// is bounded; when full the write is dropped — the chunk remains cached in
// memory, and a later eviction simply loses the second tier for it.
func (c *Cache) spill(key Key, data []byte) {
	if c.spillCh == nil {
		return
	}
	c.mu.Lock()
	already := c.inReplica[key]
	c.mu.Unlock()
	if already {
		return
	}
	cp := bufpool.Get(len(data))
	copy(cp, data)
	select {
	case c.spillCh <- spillReq{key: key, data: cp}:
	default:
		bufpool.Put(cp) // queue full: drop the spill, keep serving
	}
}

func (c *Cache) spillLoop() {
	defer c.wg.Done()
	for {
		select {
		case req := <-c.spillCh:
			c.writeReplica(req.key, req.data)
		case <-c.closed:
			// Drain what's already queued, then exit.
			for {
				select {
				case req := <-c.spillCh:
					bufpool.Put(req.data)
				default:
					return
				}
			}
		}
	}
}

// writeReplica pushes one buffer into the replica and returns it to the
// pool; both the async spill and the pre-stager land here.
func (c *Cache) writeReplica(key Key, data []byte) {
	err := c.cfg.Replica.Put(key.replicaKey(), data)
	size := int64(len(data))
	bufpool.Put(data)
	if err != nil {
		c.logf("stagecache: replica put %s: %v (dropped)", key.replicaKey(), err)
		return
	}
	c.mu.Lock()
	c.inReplica[key] = true
	c.staged += size
	c.mu.Unlock()
	c.m.bytesStaged.Add(size)
}

// Prestage asynchronously copies the given chunks of dataset (origin
// order preserved) from src into the replica — the push half of the cache.
// Call it with the refs in the head's grant order so staged data lands just
// ahead of its jobs. Returns immediately; a nil cache or a cache without a
// replica ignores the request.
func (c *Cache) Prestage(dataset uint64, site int, src chunk.Source, refs []chunk.Ref) {
	if c == nil || c.cfg.Replica == nil || src == nil || len(refs) == 0 {
		return
	}
	select {
	case c.prestageCh <- prestageReq{dataset: dataset, site: site, src: src, refs: append([]chunk.Ref(nil), refs...)}:
	case <-c.closed:
	}
}

func (c *Cache) prestageLoop() {
	defer c.wg.Done()
	for {
		select {
		case req := <-c.prestageCh:
			c.prestageRun(req)
		case <-c.closed:
			return
		}
	}
}

func (c *Cache) prestageRun(req prestageReq) {
	for _, ref := range req.refs {
		select {
		case <-c.closed:
			return
		default:
		}
		key := Key{Dataset: req.dataset, Site: req.site, File: ref.File, Seq: ref.Seq}
		c.mu.Lock()
		_, inMem := c.entries[key]
		skip := inMem || c.inReplica[key]
		c.mu.Unlock()
		if skip {
			continue // a read-through beat the stager to it
		}
		data, err := req.src.ReadChunk(ref)
		if err != nil {
			c.logf("stagecache: prestage read %v: %v (skipped)", ref, err)
			continue
		}
		c.writeReplica(key, data)
	}
}

var _ chunk.Source = (*cachedSource)(nil)

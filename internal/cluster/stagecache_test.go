package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/chunk"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/stagecache"
)

// flakyReplica is an in-memory replica that starts failing every operation
// after failAfter successful ones — an objstore node crashing mid-run.
type flakyReplica struct {
	mu        sync.Mutex
	objs      map[string][]byte
	ops       int
	failAfter int // <0: never fail
}

func (r *flakyReplica) broken() bool {
	return r.failAfter >= 0 && r.ops > r.failAfter
}

func (r *flakyReplica) Put(key string, data []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	if r.broken() {
		return errors.New("replica down")
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	r.objs[key] = cp
	return nil
}

func (r *flakyReplica) Get(key string) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	if r.broken() {
		return nil, errors.New("replica down")
	}
	data, ok := r.objs[key]
	if !ok {
		return nil, errors.New("no such key")
	}
	out := bufpool.Get(len(data))
	copy(out, data)
	return out, nil
}

// cacheAgent is the cluster the cache tests run: site 1, pulling the site-0
// half of the dataset across sites through the given cache.
func cacheAgent(src chunk.Source, cache *stagecache.Cache) AgentConfig {
	return AgentConfig{
		Site: 1, Name: "cloud", Cores: 4,
		Sources: map[int]chunk.Source{0: src, 1: src},
		Cache:   cache,
	}
}

// runWithCache executes one single-cluster run through the given cache and
// checks the sum.
func runWithCache(t *testing.T, cache *stagecache.Cache) {
	t.Helper()
	ix, src, want := buildDataset(t, 4000, 1000, 100)
	h, q := newHead(t, ix, jobs.SplitByFraction(len(ix.Files), 0.5, 0, 1), 1)
	if got := runAgents(t, h, q, cacheAgent(src, cache)).sum(t); got != want {
		t.Errorf("final sum = %d, want %d", got, want)
	}
}

func TestClusterWithStageCache(t *testing.T) {
	rep := &flakyReplica{objs: make(map[string][]byte), failAfter: -1}
	cache := stagecache.New(stagecache.Config{
		CapacityBytes: 8 << 10, // a couple of chunks: force replica traffic
		Replica:       rep,
		SpillDepth:    64,
		Logf:          t.Logf,
	}, nil)
	defer cache.Close()
	runWithCache(t, cache)

	// Every remote chunk crossed the WAN once and must land in the replica
	// (spilled by a read-through or pushed by the pre-stager).
	remote := int64(2000 * 4) // site-0 half of the dataset
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && cache.Snapshot().BytesStaged < remote {
		time.Sleep(time.Millisecond)
	}
	if s := cache.Snapshot(); s.BytesStaged < remote {
		t.Errorf("staged %d bytes, want >= %d", s.BytesStaged, remote)
	}
}

// TestClusterStageCacheWarmSecondQuery: one agent, one cache, the same
// dataset queried twice. The first query pulls the remote half across sites
// and fills the cache; the second is served from it — the origin sees no
// further remote read.
func TestClusterStageCacheWarmSecondQuery(t *testing.T) {
	ix, src, want := buildDataset(t, 4000, 1000, 100)
	placement := jobs.SplitByFraction(len(ix.Files), 0.5, 0, 1)
	cache := stagecache.New(stagecache.Config{CapacityBytes: 1 << 20, Logf: t.Logf}, nil)
	defer cache.Close()
	var remote atomic.Int64
	cfg := cacheAgent(src, cache)
	cfg.Sources = map[int]chunk.Source{0: countingSource{src, &remote}, 1: src}

	h, cold := newHead(t, ix, placement, 1)
	exit := make(chan error, 1)
	cfg.Head, cfg.Logf = InProcAgent{Head: h}, t.Logf
	go func() { exit <- RunAgent(context.Background(), cfg) }()
	wait := func(q *head.Query) uint64 {
		t.Helper()
		obj, _, _, err := q.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return obj.(*sumObj).total
	}
	if got := wait(cold); got != want {
		t.Errorf("cold sum = %d, want %d", got, want)
	}
	remoteBytes := int64(2000 * 4) // the site-0 half of the dataset
	if got := remote.Load(); got != remoteBytes {
		t.Errorf("cold query read %d remote bytes, want %d", got, remoteBytes)
	}
	hits := cache.Snapshot().Hits

	if got := wait(admitAll(t, h, ix, placement, jobs.Options{})); got != want {
		t.Errorf("warm sum = %d, want %d", got, want)
	}
	if got := remote.Load(); got != remoteBytes {
		t.Errorf("warm query went back to the origin: %d remote bytes read, want still %d", got, remoteBytes)
	}
	if got := cache.Snapshot().Hits - hits; got != 20 {
		t.Errorf("warm query hit the cache %d times, want 20 (every remote chunk)", got)
	}
	h.Shutdown()
	if err := <-exit; err != nil {
		t.Errorf("agent exit: %v", err)
	}
}

func TestClusterStageCacheReplicaCrash(t *testing.T) {
	// The replica dies after a handful of operations mid-run: the workers
	// must fall back to the origin source and still produce the exact sum.
	rep := &flakyReplica{objs: make(map[string][]byte), failAfter: 5}
	cache := stagecache.New(stagecache.Config{
		CapacityBytes: 8 << 10,
		Replica:       rep,
		Logf:          t.Logf,
	}, nil)
	defer cache.Close()
	runWithCache(t, cache)
}

func TestClusterStageCacheReplicaDeadFromStart(t *testing.T) {
	rep := &flakyReplica{objs: make(map[string][]byte), failAfter: 0}
	cache := stagecache.New(stagecache.Config{Replica: rep, Logf: t.Logf}, nil)
	defer cache.Close()
	runWithCache(t, cache)
}

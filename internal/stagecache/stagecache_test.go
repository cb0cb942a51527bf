package stagecache

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/chunk"
	"repro/internal/obs"
)

// testDataset builds a small in-memory dataset with deterministic content:
// 4 files × 4 chunks × 4 KiB.
func testDataset(t *testing.T) (*chunk.Index, *chunk.MemSource, []chunk.Ref) {
	t.Helper()
	ix, err := chunk.Layout("sc", 64, 1024, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	src := chunk.NewMemSource(ix)
	var refs []chunk.Ref
	for fi, f := range ix.Files {
		data := make([]byte, f.Size)
		for i := range data {
			data[i] = byte(fi*31 + i)
		}
		if err := src.WriteFile(f.Name, data); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, f.Chunks...)
	}
	return ix, src, refs
}

// wantChunk recomputes the expected bytes of one chunk.
func wantChunk(ref chunk.Ref) []byte {
	data := make([]byte, ref.Size)
	for i := range data {
		data[i] = byte(ref.File*31 + int(ref.Offset) + i)
	}
	return data
}

func checkChunk(t *testing.T, ref chunk.Ref, got []byte) {
	t.Helper()
	if !bytes.Equal(got, wantChunk(ref)) {
		t.Fatalf("chunk %v: wrong bytes", ref)
	}
}

// countingSource counts origin reads so tests can prove which tier served.
type countingSource struct {
	src   chunk.Source
	reads atomic.Int64
}

func (s *countingSource) ReadChunk(ref chunk.Ref) ([]byte, error) {
	s.reads.Add(1)
	return s.src.ReadChunk(ref)
}

// fakeReplica is an in-memory Replica whose failures are switchable at
// runtime, standing in for a crashed objstore node.
type fakeReplica struct {
	mu   sync.Mutex
	objs map[string][]byte
	gets int
	down bool
}

func newFakeReplica() *fakeReplica { return &fakeReplica{objs: make(map[string][]byte)} }

func (r *fakeReplica) crash(down bool) {
	r.mu.Lock()
	r.down = down
	r.mu.Unlock()
}

func (r *fakeReplica) getCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gets
}

func (r *fakeReplica) Put(key string, data []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.down {
		return errors.New("replica down")
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	r.objs[key] = cp
	return nil
}

func (r *fakeReplica) Get(key string) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gets++
	if r.down {
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

// waitStaged polls until the cache reports at least n staged bytes.
func waitStaged(t *testing.T, c *Cache, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Snapshot().BytesStaged >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("staged %d bytes, want >= %d", c.Snapshot().BytesStaged, n)
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache
	_, src, refs := testDataset(t)
	if got := c.Wrap(0, src); got != chunk.Source(src) {
		t.Error("nil cache Wrap changed the source")
	}
	c.Prestage(0, src, refs) // must not panic
	c.Close()
	if s := c.Snapshot(); s != (Stats{}) {
		t.Errorf("nil cache Snapshot = %+v", s)
	}
	if New(Config{}, nil).Wrap(0, nil) != nil {
		t.Error("Wrap(nil source) != nil")
	}
}

func TestReadThroughMemoryTier(t *testing.T) {
	_, mem, refs := testDataset(t)
	origin := &countingSource{src: mem}
	reg := obs.NewRegistry()
	c := New(Config{}, reg)
	defer c.Close()
	src := c.Wrap(0, origin)

	// Cold pass: every read is a miss served by the origin.
	for _, ref := range refs {
		data, err := src.ReadChunk(ref)
		if err != nil {
			t.Fatal(err)
		}
		checkChunk(t, ref, data)
		// Caller owns the buffer: scribbling on it must not corrupt the tier.
		for i := range data {
			data[i] = 0xff
		}
		bufpool.Put(data)
	}
	if got := origin.reads.Load(); got != int64(len(refs)) {
		t.Fatalf("cold pass origin reads = %d, want %d", got, len(refs))
	}
	// Warm pass: all memory hits, the origin is not touched again.
	for _, ref := range refs {
		data, err := src.ReadChunk(ref)
		if err != nil {
			t.Fatal(err)
		}
		checkChunk(t, ref, data)
		bufpool.Put(data)
	}
	if got := origin.reads.Load(); got != int64(len(refs)) {
		t.Fatalf("warm pass touched origin: reads = %d, want %d", got, len(refs))
	}
	s := c.Snapshot()
	if s.Hits != int64(len(refs)) || s.Misses != int64(len(refs)) {
		t.Errorf("stats = %+v, want %d hits / %d misses", s, len(refs), len(refs))
	}
	if s.ResidentBytes <= 0 {
		t.Error("nothing resident after warm pass")
	}
	if got := reg.Snapshot()["stagecache_hits_total"]; got != s.Hits {
		t.Errorf("registry hits = %v, want %d", got, s.Hits)
	}
}

func TestReplicaServesEvictedChunks(t *testing.T) {
	_, mem, refs := testDataset(t)
	origin := &countingSource{src: mem}
	rep := newFakeReplica()
	perChunk := refs[0].Size
	var total int64
	for _, r := range refs {
		total += r.Size
	}
	// Memory holds only two chunks, so the cold pass evicts almost
	// everything — but every chunk spills to the replica.
	c := New(Config{CapacityBytes: 2 * perChunk, Replica: rep, SpillDepth: len(refs)}, nil)
	defer c.Close()
	src := c.Wrap(0, origin)

	for _, ref := range refs {
		data, err := src.ReadChunk(ref)
		if err != nil {
			t.Fatal(err)
		}
		checkChunk(t, ref, data)
		bufpool.Put(data)
	}
	waitStaged(t, c, total)
	coldReads := origin.reads.Load()

	// Warm pass: evicted chunks come back from the replica, not the origin.
	for _, ref := range refs {
		data, err := src.ReadChunk(ref)
		if err != nil {
			t.Fatal(err)
		}
		checkChunk(t, ref, data)
		bufpool.Put(data)
	}
	if got := origin.reads.Load(); got != coldReads {
		t.Errorf("warm pass touched origin: %d extra reads", got-coldReads)
	}
	s := c.Snapshot()
	if s.Evictions == 0 {
		t.Error("no evictions despite tiny capacity")
	}
	if s.ResidentBytes > 2*perChunk {
		t.Errorf("resident %d bytes exceeds capacity %d", s.ResidentBytes, 2*perChunk)
	}
}

func TestReplicaCrashFallsBackToOrigin(t *testing.T) {
	_, mem, refs := testDataset(t)
	origin := &countingSource{src: mem}
	rep := newFakeReplica()
	perChunk := refs[0].Size
	var total int64
	for _, r := range refs {
		total += r.Size
	}
	c := New(Config{CapacityBytes: perChunk, Replica: rep, SpillDepth: len(refs)}, nil)
	defer c.Close()
	src := c.Wrap(0, origin)

	for _, ref := range refs {
		data, err := src.ReadChunk(ref)
		if err != nil {
			t.Fatal(err)
		}
		bufpool.Put(data)
	}
	waitStaged(t, c, total)

	// Crash the replica: every staged read must fall back to the origin and
	// still return correct bytes.
	rep.crash(true)
	for _, ref := range refs[:len(refs)-1] { // last ref may still be in memory
		data, err := src.ReadChunk(ref)
		if err != nil {
			t.Fatalf("read with dead replica: %v", err)
		}
		checkChunk(t, ref, data)
		bufpool.Put(data)
	}
	// The failed probes cleared the staged-set beliefs: another pass over
	// now-evicted chunks goes straight to the origin, no more replica gets.
	gets := rep.getCount()
	for _, ref := range refs[:len(refs)-1] {
		data, err := src.ReadChunk(ref)
		if err != nil {
			t.Fatal(err)
		}
		checkChunk(t, ref, data)
		bufpool.Put(data)
	}
	if got := rep.getCount(); got > gets+1 {
		t.Errorf("dead replica still probed: %d extra gets", got-gets)
	}
}

func TestReplicaSizeMismatchFallsBackToOrigin(t *testing.T) {
	_, mem, refs := testDataset(t)
	origin := &countingSource{src: mem}
	rep := newFakeReplica()
	c := New(Config{CapacityBytes: 1, Replica: rep}, nil) // nothing fits in memory
	defer c.Close()
	src := c.Wrap(0, origin)

	// A truncated replica object (partial write, torn upload) must never be
	// served: seed one and make the cache believe it is staged.
	ref := refs[0]
	key := Key{Site: 0, File: ref.File, Seq: ref.Seq}
	if err := rep.Put(key.replicaKey(), make([]byte, ref.Size/2)); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.inReplica[key] = true
	c.mu.Unlock()

	data, err := src.ReadChunk(ref)
	if err != nil {
		t.Fatal(err)
	}
	checkChunk(t, ref, data)
	bufpool.Put(data)
	if got := origin.reads.Load(); got != 1 {
		t.Errorf("origin reads = %d, want 1 (fallback)", got)
	}
	// The origin read is spilled back asynchronously, so the key may be
	// believed staged again — but only once the replica holds the full chunk.
	c.mu.Lock()
	believed := c.inReplica[key]
	c.mu.Unlock()
	if believed {
		staged, err := rep.Get(key.replicaKey())
		if err != nil || int64(len(staged)) != ref.Size {
			t.Errorf("key believed staged over a %d-byte replica object (err %v), want %d bytes",
				len(staged), err, ref.Size)
		}
	}
}

func TestPrestagePushesAheadOfReads(t *testing.T) {
	_, mem, refs := testDataset(t)
	origin := &countingSource{src: mem}
	stagerSrc := &countingSource{src: mem}
	rep := newFakeReplica()
	var total int64
	for _, r := range refs {
		total += r.Size
	}
	c := New(Config{CapacityBytes: 1, Replica: rep}, nil) // memory tier disabled
	defer c.Close()
	src := c.Wrap(0, origin)

	c.Prestage(0, stagerSrc, refs)
	waitStaged(t, c, total)
	if got := stagerSrc.reads.Load(); got != int64(len(refs)) {
		t.Fatalf("stager reads = %d, want %d", got, len(refs))
	}

	// Every read now lands on the replica; the worker's origin path is idle.
	for _, ref := range refs {
		data, err := src.ReadChunk(ref)
		if err != nil {
			t.Fatal(err)
		}
		checkChunk(t, ref, data)
		bufpool.Put(data)
	}
	if got := origin.reads.Load(); got != 0 {
		t.Errorf("reads after prestage touched origin %d times", got)
	}
	if s := c.Snapshot(); s.Hits != int64(len(refs)) {
		t.Errorf("hits = %d, want %d (all replica)", s.Hits, len(refs))
	}
	// Re-prestaging the same refs is a no-op: everything is already staged.
	c.Prestage(0, stagerSrc, refs)
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) && stagerSrc.reads.Load() == int64(len(refs)) {
		time.Sleep(time.Millisecond)
	}
	if got := stagerSrc.reads.Load(); got != int64(len(refs)) {
		t.Errorf("re-prestage re-read %d chunks", got-int64(len(refs)))
	}
}

// TestConcurrentReadEvictPrestage races read-through, eviction, and
// pre-staging of the same partitions; run under -race via `make check`.
// Every read must return the correct bytes no matter which tier serves it.
func TestConcurrentReadEvictPrestage(t *testing.T) {
	_, mem, refs := testDataset(t)
	rep := newFakeReplica()
	perChunk := refs[0].Size
	// Capacity of ~3 chunks keeps eviction constantly active.
	c := New(Config{CapacityBytes: 3 * perChunk, Replica: rep, SpillDepth: 4}, nil)
	defer c.Close()
	src := c.Wrap(0, chunk.Source(mem))

	const readers = 8
	const rounds = 40
	var wg sync.WaitGroup
	errCh := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ref := refs[(g*7+i)%len(refs)]
				data, err := src.ReadChunk(ref)
				if err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(data, wantChunk(ref)) {
					errCh <- errors.New("corrupt read under contention")
					bufpool.Put(data)
					return
				}
				bufpool.Put(data)
			}
		}(g)
	}
	// Pre-stage the same partitions concurrently, repeatedly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			c.Prestage(0, mem, refs)
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	s := c.Snapshot()
	if s.Hits+s.Misses < readers*rounds {
		t.Errorf("accounting lost reads: %d hits + %d misses < %d", s.Hits, s.Misses, readers*rounds)
	}
	if s.ResidentBytes > 3*perChunk {
		t.Errorf("resident %d bytes exceeds capacity", s.ResidentBytes)
	}
}

func TestSingleflightCollapsesConcurrentMisses(t *testing.T) {
	_, mem, refs := testDataset(t)
	slow := &slowSource{src: mem, gate: make(chan struct{})}
	c := New(Config{}, nil)
	defer c.Close()
	src := c.Wrap(0, slow)

	ref := refs[0]
	const n = 4
	var wg sync.WaitGroup
	results := make([][]byte, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = src.ReadChunk(ref)
		}(i)
	}
	// Let all readers pile onto the single in-flight fetch, then release it.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && slow.waiting.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // let the rest join as waiters
	close(slow.gate)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		checkChunk(t, ref, results[i])
		bufpool.Put(results[i])
	}
	if got := slow.reads.Load(); got != 1 {
		t.Errorf("origin reads = %d, want 1 (singleflight)", got)
	}
}

// slowSource blocks the first ReadChunk until gate closes.
type slowSource struct {
	src     chunk.Source
	gate    chan struct{}
	waiting atomic.Int64
	reads   atomic.Int64
}

func (s *slowSource) ReadChunk(ref chunk.Ref) ([]byte, error) {
	s.waiting.Add(1)
	<-s.gate
	s.reads.Add(1)
	return s.src.ReadChunk(ref)
}

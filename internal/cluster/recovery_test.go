package cluster

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/protocol"
)

// newFaultHead is newHead plus a fault configuration: a checkpoint store and
// the lease TTL (zero disables expiry-driven failure detection).
func newFaultHead(t *testing.T, ix *chunk.Index, placement jobs.Placement, clusters int, store fault.Store, ttl time.Duration) (*head.Head, *head.Query) {
	t.Helper()
	return admitHead(t, head.Config{
		ExpectClusters: clusters,
		Tuning:         config.Tuning{LeaseTTL: ttl},
		Fault:          head.FaultConfig{Store: store},
	}, ix, placement, jobs.Options{})
}

// TestWorkerCrashRecoveryByteIdentical is the live-mode end-to-end recovery
// drill: a worker is killed mid-run after shipping reduction-object
// checkpoints, a replacement re-registers, resumes from the last checkpoint,
// and the final reduction object is byte-for-byte identical to a
// failure-free run's.
func TestWorkerCrashRecoveryByteIdentical(t *testing.T) {
	ix, src, want := buildDataset(t, 4000, 1000, 100) // 4 files × 10 chunks = 40 jobs
	placement := jobs.SplitByFraction(len(ix.Files), 1, 0, 1)
	encoded := func(s session) []byte {
		t.Helper()
		if got := s.sum(t); got != want {
			t.Errorf("sum = %d, want %d", got, want)
		}
		enc, err := sumReducer{}.Encode(s.obj)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}

	// Reference: failure-free run.
	refHead, refQuery := newHead(t, ix, placement, 1)
	ref := encoded(runAgents(t, refHead, refQuery, AgentConfig{
		Site: 0, Name: "ref", Cores: 2,
		Sources: map[int]chunk.Source{0: src},
	}))

	// Faulty run: the data path dies after 12 successful chunk reads.
	h, q := newFaultHead(t, ix, placement, 1, fault.NewMemStore(), 0)
	inj := &fault.Injector{Source: src, KillAfter: 12}
	cfg := AgentConfig{
		Site: 0, Name: "doomed", Cores: 2,
		Sources: map[int]chunk.Source{0: inj},
		Head:    InProcAgent{Head: h},
		Tuning:  config.Tuning{CheckpointEveryJobs: 5},
		Retry:   Retry{Attempts: 2, Backoff: time.Millisecond},
		Logf:    t.Logf,
	}
	if err := RunAgent(context.Background(), cfg); err == nil {
		t.Fatal("killed worker's run succeeded")
	}

	// The replacement worker: fresh data path, same site. Registration hands
	// it the last checkpoint; it must not re-fold covered jobs.
	inj.Arm()
	s := runAgents(t, h, q, cfg)
	if got := encoded(s); !bytes.Equal(got, ref) {
		t.Errorf("final object differs after recovery: %x vs %x", got, ref)
	}
	// At least two checkpoints (after folds 5 and 10) were shipped before
	// the crash, so the replacement processes at most 30 of the 40 jobs.
	if local, stolen := s.jobs(); local+stolen > 30 {
		t.Errorf("replacement processed %d jobs; checkpoint resume should cap it at 30", local+stolen)
	}
}

// fencingSource triggers fence() around the nth chunk read — the test's
// deterministic stand-in for a lease expiring under a still-alive master.
type fencingSource struct {
	chunk.Source
	mu    sync.Mutex
	n     int
	after int
	fence func()
}

func (f *fencingSource) ReadChunk(ref chunk.Ref) ([]byte, error) {
	f.mu.Lock()
	f.n++
	if f.n == f.after {
		f.fence()
	}
	f.mu.Unlock()
	return f.Source.ReadChunk(ref)
}

// registrations counts RegisterSite calls on the way to the head.
type registrations struct {
	QueryClient
	n atomic.Int32
}

func (r *registrations) RegisterSite(hello protocol.Hello) (protocol.SiteSpec, error) {
	r.n.Add(1)
	return r.QueryClient.RegisterSite(hello)
}

// TestFencedMasterFailsFastAndRejoins declares a site failed while its
// master is alive and mid-run. The fenced master must notice at once —
// neither hang on wait=true polls nor silently double-count — drop what the
// head no longer credits it with, re-register on the same session, resume
// from its last accepted checkpoint and produce the exact failure-free
// result.
func TestFencedMasterFailsFastAndRejoins(t *testing.T) {
	ix, src, want := buildDataset(t, 4000, 1000, 100) // 40 jobs
	placement := jobs.SplitByFraction(len(ix.Files), 1, 0, 1)
	// Expiry never fires on its own (1h TTL); the test fences explicitly.
	h, q := newFaultHead(t, ix, placement, 1, fault.NewMemStore(), time.Hour)
	fsrc := &fencingSource{Source: src, after: 12, fence: func() { h.FailSite(0) }}
	client := &registrations{QueryClient: InProcAgent{Head: h}}
	done := make(chan session, 1)
	go func() {
		done <- runAgents(t, h, q, AgentConfig{
			Site: 0, Name: "straggler", Cores: 2,
			Sources: map[int]chunk.Source{0: fsrc},
			Head:    client,
			Tuning:  config.Tuning{CheckpointEveryJobs: 5},
		})
	}()
	select {
	case s := <-done:
		if got := s.sum(t); got != want {
			t.Errorf("sum after fencing = %d, want %d", got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fenced master hung instead of rejoining")
	}
	if got := client.n.Load(); got != 2 {
		t.Errorf("master registered %d times, want 2 (once, and once after the fence)", got)
	}
}

// killSignal closes fired the first time the injector under it refuses a
// read — the moment the doomed cluster's data path died.
type killSignal struct {
	chunk.Source
	once  sync.Once
	fired chan struct{}
}

func (k *killSignal) ReadChunk(ref chunk.Ref) ([]byte, error) {
	data, err := k.Source.ReadChunk(ref)
	if errors.Is(err, fault.ErrInjected) {
		k.once.Do(func() { close(k.fired) })
	}
	return data, err
}

// TestCrashRestartWithTwoClusters kills one of two clusters mid-run; the
// restarted incarnation rejoins to contribute its (checkpointed) share while
// the survivor works off the requeued jobs, and the final object matches the
// failure-free answer. The survivor starts only once the kill has fired: the
// injector counts the doomed site's reads, and a survivor racing it for jobs
// could steal enough of them that the eighth read never happens.
func TestCrashRestartWithTwoClusters(t *testing.T) {
	ix, src, want := buildDataset(t, 8000, 1000, 100) // 8 files × 10 chunks
	placement := jobs.SplitByFraction(len(ix.Files), 0.5, 0, 1)

	h, q := newFaultHead(t, ix, placement, 2, fault.NewMemStore(), 200*time.Millisecond)
	inj := &fault.Injector{Source: src, KillAfter: 8}
	killed := &killSignal{Source: inj, fired: make(chan struct{})}
	doomed := AgentConfig{
		Site: 0, Name: "doomed", Cores: 2,
		Sources: map[int]chunk.Source{0: killed, 1: killed},
		Head:    InProcAgent{Head: h},
		Tuning:  config.Tuning{CheckpointEveryJobs: 4},
		Retry:   Retry{Attempts: 2, Backoff: time.Millisecond},
	}

	healthyDone := make(chan error, 1)
	go func() {
		<-killed.fired
		healthyDone <- RunAgent(context.Background(), AgentConfig{
			Site: 1, Name: "healthy", Cores: 2,
			Sources: map[int]chunk.Source{0: src, 1: src},
			Head:    InProcAgent{Head: h},
		})
	}()

	// First incarnation dies, replacement resumes from its checkpoint.
	if err := RunAgent(context.Background(), doomed); err == nil {
		t.Fatal("killed cluster's run succeeded")
	}
	inj.Arm()
	s := runAgents(t, h, q, doomed)
	if err := <-healthyDone; err != nil {
		t.Fatalf("healthy cluster: %v", err)
	}
	if got := s.sum(t); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

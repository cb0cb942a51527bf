package cluster

import (
	"bytes"
	"errors"
	"sync"
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
func newFaultHead(t *testing.T, ix *chunk.Index, placement jobs.Placement, clusters int, store fault.Store, ttl time.Duration) *head.Head {
	t.Helper()
	pool, err := jobs.NewPool(ix, placement, jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := protocol.JobSpec{App: "cluster-test-sum", UnitSize: 4, GroupBytes: 1 << 10}
	if err := head.EncodeIndexSpec(&spec, ix); err != nil {
		t.Fatal(err)
	}
	h, err := head.New(head.Config{
		Pool:           pool,
		Reducer:        sumReducer{},
		Spec:           spec,
		ExpectClusters: clusters,
		Logf:           t.Logf,
		Tuning:         config.Tuning{LeaseTTL: ttl},
		Fault:          head.FaultConfig{Store: store},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestWorkerCrashRecoveryByteIdentical is the live-mode end-to-end recovery
// drill: a worker is killed mid-run after shipping reduction-object
// checkpoints, a replacement re-registers, resumes from the last checkpoint,
// and the final reduction object is byte-for-byte identical to a
// failure-free run's.
func TestWorkerCrashRecoveryByteIdentical(t *testing.T) {
	ix, src, want := buildDataset(t, 4000, 1000, 100) // 4 files × 10 chunks = 40 jobs
	placement := jobs.SplitByFraction(len(ix.Files), 1, 0, 1)

	// Reference: failure-free run.
	refHead := newHead(t, ix, placement, 1)
	refRep, err := Run(Config{
		Site: 0, Name: "ref", Cores: 2,
		Sources: map[int]chunk.Source{0: src},
		Head:    InProc{Head: refHead},
	})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	// Faulty run: the data path dies after 12 successful chunk reads.
	h := newFaultHead(t, ix, placement, 1, fault.NewMemStore(), 0)
	inj := &fault.Injector{Source: src, KillAfter: 12}
	cfg := Config{
		Site: 0, Name: "doomed", Cores: 2,
		Sources: map[int]chunk.Source{0: inj},
		Head:    InProc{Head: h},
		Tuning:  config.Tuning{CheckpointEveryJobs: 5},
		Retry:   Retry{Attempts: 2, Backoff: time.Millisecond},
		Logf:    t.Logf,
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("killed worker's run succeeded")
	}

	// The replacement worker: fresh data path, same site. Registration hands
	// it the last checkpoint; it must not re-fold covered jobs.
	inj.Arm()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("restarted run: %v", err)
	}
	if !bytes.Equal(rep.Final, refRep.Final) {
		t.Errorf("final object differs after recovery: %x vs %x", rep.Final, refRep.Final)
	}
	// At least two checkpoints (after folds 5 and 10) were shipped before
	// the crash, so the replacement processes at most 30 of the 40 jobs.
	if rep.Jobs.Total() > 30 {
		t.Errorf("replacement processed %d jobs; checkpoint resume should cap it at 30", rep.Jobs.Total())
	}
	obj, _, _, err := h.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*sumObj).total; got != want {
		t.Errorf("recovered sum = %d, want %d", got, want)
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

// TestFencedMasterFailsFastAndRejoins declares a site failed while its
// master is alive and mid-run. The fenced incarnation must abort with a
// fencing error instead of hanging on wait=true polls or silently
// double-counting, and a restarted incarnation must re-register and produce
// the exact failure-free result.
func TestFencedMasterFailsFastAndRejoins(t *testing.T) {
	ix, src, want := buildDataset(t, 4000, 1000, 100) // 40 jobs
	placement := jobs.SplitByFraction(len(ix.Files), 1, 0, 1)
	// Expiry never fires on its own (1h TTL); the test fences explicitly.
	h := newFaultHead(t, ix, placement, 1, fault.NewMemStore(), time.Hour)
	fsrc := &fencingSource{Source: src, after: 12, fence: func() { h.FailSite(0) }}
	cfg := Config{
		Site: 0, Name: "straggler", Cores: 2,
		Sources: map[int]chunk.Source{0: fsrc},
		Head:    InProc{Head: h},
		Tuning:  config.Tuning{CheckpointEveryJobs: 5},
		Logf:    t.Logf,
	}
	done := make(chan error, 1)
	go func() {
		_, err := Run(cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if !fault.IsFenced(err) {
			t.Fatalf("fenced master returned %v, want a fencing error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fenced master hung instead of failing fast")
	}

	// The replacement re-registers, resumes from the last accepted
	// checkpoint, and finishes the run with the failure-free answer.
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("rejoined run: %v", err)
	}
	obj, _, _, err := h.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*sumObj).total; got != want {
		t.Errorf("sum after fencing = %d, want %d", got, want)
	}
	if bytes.Equal(rep.Final, nil) {
		t.Error("no final object returned")
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

	h := newFaultHead(t, ix, placement, 2, fault.NewMemStore(), 200*time.Millisecond)
	sources := map[int]chunk.Source{0: src, 1: src}
	inj := &fault.Injector{Source: src, KillAfter: 8}
	killed := &killSignal{Source: inj, fired: make(chan struct{})}
	doomed := Config{
		Site: 0, Name: "doomed", Cores: 2,
		Sources: map[int]chunk.Source{0: killed, 1: killed},
		Head:    InProc{Head: h},
		Tuning:  config.Tuning{CheckpointEveryJobs: 4},
		Retry:   Retry{Attempts: 2, Backoff: time.Millisecond},
	}
	healthy := Config{
		Site: 1, Name: "healthy", Cores: 2,
		Sources: sources,
		Head:    InProc{Head: h},
	}

	healthyDone := make(chan error, 1)
	go func() {
		<-killed.fired
		_, err := Run(healthy)
		healthyDone <- err
	}()

	// First incarnation dies, replacement resumes from its checkpoint.
	if _, err := Run(doomed); err == nil {
		t.Fatal("killed cluster's run succeeded")
	}
	inj.Arm()
	if _, err := Run(doomed); err != nil {
		t.Fatalf("restarted cluster: %v", err)
	}
	if err := <-healthyDone; err != nil {
		t.Fatalf("healthy cluster: %v", err)
	}
	obj, _, _, err := h.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*sumObj).total; got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

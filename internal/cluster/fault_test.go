package cluster

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/jobs"
)

// flakySource fails the first failures reads of each chunk, then succeeds.
type flakySource struct {
	inner    chunk.Source
	failures int

	mu    sync.Mutex
	seen  map[chunk.Ref]int
	calls int
}

func newFlaky(inner chunk.Source, failures int) *flakySource {
	return &flakySource{inner: inner, failures: failures, seen: make(map[chunk.Ref]int)}
}

func (f *flakySource) ReadChunk(ref chunk.Ref) ([]byte, error) {
	f.mu.Lock()
	f.calls++
	n := f.seen[ref]
	f.seen[ref] = n + 1
	f.mu.Unlock()
	if n < f.failures {
		return nil, errors.New("transient storage failure")
	}
	return f.inner.ReadChunk(ref)
}

// deadSource always fails.
type deadSource struct{}

func (deadSource) ReadChunk(chunk.Ref) ([]byte, error) {
	return nil, errors.New("permanent failure")
}

func TestRetryRecoversTransientFailures(t *testing.T) {
	ix, src, want := buildDataset(t, 1000, 500, 100)
	h, q := newHead(t, ix, jobs.SplitByFraction(len(ix.Files), 1, 0, 1), 1)
	flaky := newFlaky(src, 2) // every chunk fails twice before succeeding
	s := runAgents(t, h, q, AgentConfig{
		Site: 0, Name: "flaky", Cores: 2,
		Sources: map[int]chunk.Source{0: flaky},
		Retry:   Retry{Attempts: 4, Backoff: time.Millisecond},
	})
	if got := s.sum(t); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
	if local, stolen := s.jobs(); local+stolen != ix.NumChunks() {
		t.Errorf("jobs = %d, want %d", local+stolen, ix.NumChunks())
	}
	// Every chunk needed exactly 3 calls (2 failures + 1 success).
	if flaky.calls != 3*ix.NumChunks() {
		t.Errorf("calls = %d, want %d", flaky.calls, 3*ix.NumChunks())
	}
}

func TestRetryExhaustionFailsRun(t *testing.T) {
	ix, _, _ := buildDataset(t, 500, 500, 100)
	h, q := newHead(t, ix, jobs.SplitByFraction(len(ix.Files), 1, 0, 1), 1)
	s := runAgents(t, h, q, AgentConfig{
		Site: 0, Name: "dead", Cores: 1,
		Sources: map[int]chunk.Source{0: deadSource{}},
		Retry:   Retry{Attempts: 2, Backoff: time.Millisecond},
	})
	err := s.agents[0]
	if err == nil {
		t.Fatal("run with a dead source succeeded")
	}
	if !strings.Contains(err.Error(), "after 2 attempts") {
		t.Errorf("error = %q, want attempt count", err)
	}
	if s.err == nil {
		t.Error("query completed without its only cluster")
	}
}

func TestRetryDefaults(t *testing.T) {
	var r Retry
	if r.attempts() != 3 {
		t.Errorf("default attempts = %d", r.attempts())
	}
	if r.backoff() != 50*time.Millisecond {
		t.Errorf("default backoff = %v", r.backoff())
	}
	r = Retry{Attempts: 7, Backoff: time.Second}
	if r.attempts() != 7 || r.backoff() != time.Second {
		t.Errorf("explicit retry = %+v", r)
	}
}

// TestRetrySingleFailureInvisible: one transient failure per chunk with the
// default policy must not surface to the caller at all.
func TestRetrySingleFailureInvisible(t *testing.T) {
	ix, src, want := buildDataset(t, 500, 500, 100)
	h, q := newHead(t, ix, jobs.SplitByFraction(len(ix.Files), 1, 0, 1), 1)
	s := runAgents(t, h, q, AgentConfig{
		Site: 0, Name: "once", Cores: 2,
		Sources: map[int]chunk.Source{0: newFlaky(src, 1)},
		Retry:   Retry{Backoff: time.Millisecond},
	})
	if got := s.sum(t); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

// corruptingSource flips a byte in one specific chunk's payload.
type corruptingSource struct {
	inner  chunk.Source
	target chunk.Ref
}

func (c corruptingSource) ReadChunk(ref chunk.Ref) ([]byte, error) {
	data, err := c.inner.ReadChunk(ref)
	if err != nil {
		return nil, err
	}
	if ref == c.target && len(data) > 0 {
		data[0] ^= 0xff
	}
	return data, nil
}

func TestChecksummedRunDetectsCorruption(t *testing.T) {
	ix, src, want := buildDataset(t, 1000, 500, 100)
	if err := ix.ComputeChecksums(src); err != nil {
		t.Fatal(err)
	}
	// Clean run with verification on: succeeds with the right answer.
	h, q := newHead(t, ix, jobs.SplitByFraction(len(ix.Files), 1, 0, 1), 1)
	s := runAgents(t, h, q, AgentConfig{
		Site: 0, Name: "clean", Cores: 2,
		Sources: map[int]chunk.Source{0: src},
	})
	if got := s.sum(t); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}

	// Corrupted payload: the run must fail, not silently mis-reduce.
	h2, q2 := newHead(t, ix, jobs.SplitByFraction(len(ix.Files), 1, 0, 1), 1)
	bad := corruptingSource{inner: src, target: ix.Files[0].Chunks[1]}
	s = runAgents(t, h2, q2, AgentConfig{
		Site: 0, Name: "corrupt", Cores: 2,
		Sources: map[int]chunk.Source{0: bad},
		Retry:   Retry{Attempts: 2, Backoff: time.Millisecond},
	})
	if err := s.agents[0]; err == nil {
		t.Fatal("corrupted run succeeded")
	} else if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("error = %q, want checksum mismatch", err)
	}
}

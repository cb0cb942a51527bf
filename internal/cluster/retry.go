package cluster

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/chunk"
	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// Retry is the retrieval fault-tolerance policy: each chunk fetch is
// attempted up to Attempts times, sleeping a capped exponential backoff with
// deterministic jitter between tries (base, 2×base, 4×base, … up to Cap,
// each halved plus a seeded-random half — "equal jitter").
//
// The zero value means 3 attempts, a 50 ms base backoff, a 2 s delay cap,
// and jitter seed 0; two clusters running the same Seed sleep the same
// sequence of delays, keeping fault drills reproducible.
//
// Permanent failures — a missing object, an out-of-range read, anything
// satisfying fault.PermanentError, or a chunk.ErrBounds — are not retried;
// transient failures (dropped connections, short reads, checksum mismatches
// from a garbled transfer) are.
type Retry struct {
	Attempts int
	Backoff  time.Duration
	Cap      time.Duration
	Seed     uint64
}

func (r Retry) attempts() int {
	if r.Attempts <= 0 {
		return 3
	}
	return r.Attempts
}

func (r Retry) backoff() time.Duration {
	if r.Backoff <= 0 {
		return 50 * time.Millisecond
	}
	return r.Backoff
}

// retrieveWithRetry fetches one chunk for the named cluster under its retry
// policy: capped exponential backoff with deterministic jitter between
// attempts, bailing out immediately on permanently-failing requests.
func retrieveWithRetry(name string, retry Retry, logf func(string, ...any),
	src chunk.Source, j jobs.Job, retries *obs.Counter) ([]byte, error) {
	bo := fault.Backoff{Base: retry.backoff(), Cap: retry.Cap, Seed: retry.Seed}
	attempts := retry.attempts()
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			retries.Inc()
			time.Sleep(bo.Delay(attempt - 1))
			logf("cluster %s: retrying %v (attempt %d): %v", name, j.Ref, attempt, lastErr)
		}
		data, err := src.ReadChunk(j.Ref)
		if err == nil {
			return data, nil
		}
		lastErr = err
		if fault.IsPermanent(err) || errors.Is(err, chunk.ErrBounds) {
			return nil, fmt.Errorf("permanent failure (no retry): %w", err)
		}
	}
	return nil, fmt.Errorf("after %d attempts: %w", attempts, lastErr)
}

// Package config defines the shared tuning knobs that used to be
// re-declared on the driver, the cluster runtime and the head. Each knob
// lives here exactly once and is plumbed outward: the driver hands the
// same Tuning to the head and to every cluster runtime it spawns, and the
// daemons build one from the shared flag set.
//
// Precedence (documented in docs/API.md): an explicit field on Tuning wins;
// a zero field falls back to the component default that applied before the
// knob was centralized (binary wire codec, heartbeat = LeaseTTL/3, fault
// machinery off).
package config

import (
	"flag"
	"fmt"
	"time"
)

// Wire codec names carried by Tuning.WireCodec. The empty string means
// CodecBinary (the data-plane default since the binary codec landed). Gob
// finished its deprecation window as a silently-accepted fallback: a head
// refuses gob sessions unless ITS tuning also opted in with -wire-codec=gob.
const (
	CodecBinary = "binary"
	CodecGob    = "gob" // explicit-opt-in compat codec for peers predating the binary codec
)

// Tuning is the single definition of every knob shared by the head, the
// cluster runtimes and the driver. The zero value reproduces the defaults
// each component applied before the collapse.
type Tuning struct {
	// WireCodec selects the session codec masters negotiate with the head
	// and the object store: CodecBinary (default) or CodecGob. Gob is an
	// explicit opt-in on both ends — a binary-default head answers a gob
	// advert with a refusal naming this knob.
	WireCodec string
	// GroupBytes is the cache-sized unit-group budget per reduction batch;
	// 0 keeps the job spec's value.
	GroupBytes int
	// LeaseTTL is each site's liveness lease at the head: a site silent for
	// longer is declared failed, its in-flight jobs requeued, and its
	// un-checkpointed completions reissued. 0 disables lease expiry.
	LeaseTTL time.Duration
	// HeartbeatEvery is pushed to clusters so they renew their leases;
	// 0 defaults to LeaseTTL/3 when leases are enabled.
	HeartbeatEvery time.Duration
	// CheckpointEveryJobs, when > 0, makes each cluster snapshot its
	// reduction engine and ship a checkpoint every that many folded jobs.
	CheckpointEveryJobs int
	// SpeculateAfter re-adds stragglers' outstanding jobs to the pool once
	// a query's pool has been empty-but-undrained for this long. 0 disables
	// speculative re-execution.
	SpeculateAfter time.Duration
	// StragglerFactor drives the head's latency watchdog: a site whose p99
	// job latency for a query exceeds this multiple of the cluster-wide
	// median is flagged as a straggler and its outstanding jobs speculated.
	// 0 uses the default (DefaultStragglerFactor); < 0 disables the
	// latency watchdog. The watchdog only runs when SpeculateAfter > 0.
	StragglerFactor float64
	// WatchdogMinSamples is the minimum number of completed jobs a
	// (query, site) pair must have before the latency watchdog will judge
	// it, avoiding flags off one slow first job. 0 uses the default
	// (DefaultWatchdogMinSamples).
	WatchdogMinSamples int
}

// Latency-watchdog defaults applied when the corresponding Tuning field is 0.
const (
	DefaultStragglerFactor    = 3.0
	DefaultWatchdogMinSamples = 4
)

// EffectiveStragglerFactor resolves the watchdog threshold: the explicit
// knob, else DefaultStragglerFactor; <= 0 after resolution means disabled.
func (t Tuning) EffectiveStragglerFactor() float64 {
	if t.StragglerFactor == 0 {
		return DefaultStragglerFactor
	}
	return t.StragglerFactor
}

// EffectiveWatchdogMinSamples resolves the watchdog's minimum sample count.
func (t Tuning) EffectiveWatchdogMinSamples() int {
	if t.WatchdogMinSamples <= 0 {
		return DefaultWatchdogMinSamples
	}
	return t.WatchdogMinSamples
}

// Validate rejects unknown codec names.
func (t Tuning) Validate() error {
	switch t.WireCodec {
	case "", CodecBinary, CodecGob:
		return nil
	default:
		return fmt.Errorf("config: unknown wire codec %q (want %s or %s)", t.WireCodec, CodecBinary, CodecGob)
	}
}

// UseGob reports whether the session should stay on the gob compat codec.
func (t Tuning) UseGob() bool { return t.WireCodec == CodecGob }

// HeartbeatInterval resolves the effective heartbeat period: the explicit
// knob, else a third of the lease TTL, else 0 (no heartbeats).
func (t Tuning) HeartbeatInterval() time.Duration {
	if t.HeartbeatEvery > 0 {
		return t.HeartbeatEvery
	}
	if t.LeaseTTL > 0 {
		return t.LeaseTTL / 3
	}
	return 0
}

// RegisterFlags exposes the shared knobs on a daemon's flag set, so
// headnode and workernode declare them once and identically.
func (t *Tuning) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&t.WireCodec, "wire-codec", CodecBinary,
		"wire codec: binary, or gob to opt in to the compat codec for peers predating binary (both sides must opt in; heads refuse gob sessions otherwise)")
	fs.IntVar(&t.GroupBytes, "group-bytes", 0,
		"unit-group (cache) budget per reduction batch (0 = job-spec value)")
	fs.DurationVar(&t.LeaseTTL, "lease-ttl", 0,
		"site liveness lease at the head; silent sites are failed after this (0 = off)")
	fs.DurationVar(&t.HeartbeatEvery, "heartbeat-every", 0,
		"cluster heartbeat period (0 = lease-ttl/3)")
	fs.IntVar(&t.CheckpointEveryJobs, "checkpoint-every", 0,
		"ship a reduction-object checkpoint every N folded jobs (0 = off)")
	fs.DurationVar(&t.SpeculateAfter, "speculate-after", 0,
		"re-add stragglers' outstanding jobs after the pool idles this long (0 = off)")
	fs.Float64Var(&t.StragglerFactor, "straggler-factor", 0,
		"flag a site when its p99 job latency exceeds this multiple of the cluster median (0 = default, <0 = off)")
	fs.IntVar(&t.WatchdogMinSamples, "watchdog-min-samples", 0,
		"completed jobs required per (query, site) before the latency watchdog judges it (0 = default)")
}

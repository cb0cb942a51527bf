// Package config defines the shared tuning knobs that used to be
// re-declared on the driver, the cluster runtime and the head. Each knob
// lives here exactly once and is plumbed outward: the driver hands the
// same Tuning to the head and to every cluster runtime it spawns, and the
// daemons build one from the shared flag set.
//
// Precedence (documented in docs/API.md): an explicit field on Tuning wins;
// a zero field falls back to the component default that applied before the
// knob was centralized (fault machinery off). The heartbeat period is not a
// knob: it is LeaseTTL/3.
package config

import (
	"flag"
	"time"
)

// Tuning is the single definition of every knob shared by the head, the
// cluster runtimes and the driver. The zero value reproduces the defaults
// each component applied before the collapse.
type Tuning struct {
	// GroupBytes is G, the cache-sized unit-group budget per reduction
	// batch, which also sizes an agent's polls and retrieval window. Only
	// cluster agents read it; 0 means core.DefaultGroupBytes.
	GroupBytes int
	// LeaseTTL is each site's liveness lease at the head: a site silent for
	// longer is declared failed, its in-flight jobs requeued, and its
	// un-checkpointed completions reissued. 0 disables lease expiry.
	LeaseTTL time.Duration
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

// HeartbeatInterval is the heartbeat period the head pushes to clusters so
// they renew their leases: a third of the lease TTL (0 without leases: no
// heartbeats).
func (t Tuning) HeartbeatInterval() time.Duration { return t.LeaseTTL / 3 }

// RegisterFlags exposes the shared knobs on a daemon's flag set, so
// headnode and workernode declare them once and identically. GroupBytes is
// not among them: only an agent reads it, so workernode declares
// -group-bytes itself and a headnode refuses the flag.
func (t *Tuning) RegisterFlags(fs *flag.FlagSet) {
	fs.DurationVar(&t.LeaseTTL, "lease-ttl", 0,
		"site liveness lease at the head; silent sites are failed after this (0 = off)")
	fs.IntVar(&t.CheckpointEveryJobs, "checkpoint-every", 0,
		"ship a reduction-object checkpoint every N folded jobs (0 = off)")
	fs.DurationVar(&t.SpeculateAfter, "speculate-after", 0,
		"re-add stragglers' outstanding jobs after the pool idles this long (0 = off)")
	fs.Float64Var(&t.StragglerFactor, "straggler-factor", 0,
		"flag a site when its p99 job latency exceeds this multiple of the cluster median (0 = default, <0 = off)")
	fs.IntVar(&t.WatchdogMinSamples, "watchdog-min-samples", 0,
		"completed jobs required per (query, site) before the latency watchdog judges it (0 = default)")
}

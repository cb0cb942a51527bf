// Package fault is the framework's fault-tolerance and straggler-resilience
// subsystem. It provides the pieces the head node, the cluster runtime and
// the discrete-event simulator share to survive worker crashes, network
// partitions and slow nodes:
//
//   - Plan — a deterministic, seedable fault-injection schedule (crash,
//     partition, slowdown×f, recover events) with a text round-trip format,
//     driven by the wall clock in live runs and the virtual clock in
//     internal/hybridsim.
//   - Leases — per-site liveness leases renewed by heartbeats; a missed
//     deadline returns the site's in-flight jobs to the global pool.
//   - Checkpoint — the FREERIDE-G-style reduction-object checkpoint: the
//     cluster's merged reduction object plus the bitmap of jobs it covers,
//     persisted through a Store (the object store in deployments) so a
//     restarted worker resumes instead of reprocessing its history.
//   - Backoff — capped exponential retry backoff with deterministic,
//     seedable jitter, shared by retrieval retries and reconnect loops.
//   - Injector — a chunk.Source wrapper that injects failures on a
//     deterministic schedule, for tests and live fault drills.
//
// The invariant every piece defends is pool conservation: each job's
// contribution reaches the final reduction object exactly once, no matter
// how many times the job was assigned, re-executed speculatively, or lost
// and recovered. Duplicate completions are deduplicated by job ID at the
// pool; contributions lost with a crashed worker are re-issued from the
// last checkpoint boundary.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/config"
)

// Kind enumerates fault-plan event types.
type Kind int

const (
	// Crash kills the target cluster: its in-flight jobs return to the
	// pool, un-checkpointed completions are re-issued, and the cluster
	// restarts from its last checkpoint after Plan.RestartAfter.
	Crash Kind = iota
	// Partition cuts the target cluster off from the head and the storage
	// sites until the matching Recover event: no new fetches or job
	// requests; completions are committed when the partition heals (and
	// deduplicated if the head re-assigned them in the meantime).
	Partition
	// Slowdown divides the target cluster's compute speed by Factor until
	// the matching Recover event (a straggler).
	Slowdown
	// Recover ends an active Partition or Slowdown on the target cluster.
	Recover
)

// String returns the plan-format keyword for k.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Partition:
		return "partition"
	case Slowdown:
		return "slowdown"
	case Recover:
		return "recover"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

func parseKind(s string) (Kind, error) {
	switch s {
	case "crash":
		return Crash, nil
	case "partition":
		return Partition, nil
	case "slowdown":
		return Slowdown, nil
	case "recover":
		return Recover, nil
	}
	return 0, fmt.Errorf("fault: unknown event kind %q", s)
}

// Event is one scheduled fault. The zero Worker targets the whole cluster;
// live deployments may address a single worker thread (1-based) where that
// granularity exists.
type Event struct {
	// At is the injection instant: virtual time in the simulator, time
	// since run start in live mode.
	At time.Duration
	// Site identifies the target cluster by its storage site ID (the same
	// key the job pool and the placement use).
	Site int
	// Worker optionally narrows the fault to one worker thread; 0 targets
	// the whole cluster.
	Worker int
	// Kind is the fault type.
	Kind Kind
	// Factor is the slowdown multiplier for Kind == Slowdown (compute rate
	// is divided by Factor; must be > 1).
	Factor float64
}

// String renders the event in plan format, e.g. "at=30s site=1 kind=crash".
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "at=%s site=%d kind=%s", e.At, e.Site, e.Kind)
	if e.Worker != 0 {
		fmt.Fprintf(&b, " worker=%d", e.Worker)
	}
	if e.Kind == Slowdown {
		fmt.Fprintf(&b, " factor=%g", e.Factor)
	}
	return b.String()
}

// Plan is a deterministic fault-injection schedule plus the recovery
// parameters that govern how the system reacts. The zero value is an
// inactive plan: no events, no checkpointing, no leases.
type Plan struct {
	// Events lists the scheduled faults; Validate requires ascending At.
	Events []Event
	// RestartAfter is the crash-to-restart delay (how long a replacement
	// worker takes to boot); 0 means the DefaultRestartAfter.
	RestartAfter time.Duration
	// Tuning holds the knobs the plan runs under — CheckpointEveryJobs (each
	// agent checkpoints a query every that many folds; 0 disables
	// checkpointing), LeaseTTL (a site silent for longer is declared failed
	// and its in-flight jobs requeued; 0 means a crash is only noticed as a
	// lost session), SpeculateAfter (re-add a query's outstanding jobs once
	// its pool has idled empty-but-undrained this long; 0 disables
	// speculation and the latency watchdog), StragglerFactor and
	// WatchdogMinSamples. The simulator hands it to its in-process head and
	// agents unchanged.
	Tuning config.Tuning
}

// DefaultRestartAfter is the crash-to-restart delay when the plan does not
// specify one.
const DefaultRestartAfter = 10 * time.Second

// Active reports whether the plan changes anything at all: any events or
// any recovery machinery (checkpointing, leases, speculation) enabled.
func (p Plan) Active() bool {
	return len(p.Events) > 0 || p.Tuning.CheckpointEveryJobs > 0 || p.Tuning.LeaseTTL > 0 || p.Tuning.SpeculateAfter > 0
}

// Restart returns the crash-to-restart delay, applying the default.
func (p Plan) Restart() time.Duration {
	if p.RestartAfter > 0 {
		return p.RestartAfter
	}
	return DefaultRestartAfter
}

// Validate checks the plan's parameters, event ordering and per-event
// parameters: everything String renders back must be what it holds.
func (p Plan) Validate() error {
	if p.RestartAfter < 0 || p.Tuning.CheckpointEveryJobs < 0 || p.Tuning.LeaseTTL < 0 || p.Tuning.SpeculateAfter < 0 {
		return fmt.Errorf("fault: negative plan parameter (restart %v, checkpoint %d, lease %v, speculate %v)",
			p.RestartAfter, p.Tuning.CheckpointEveryJobs, p.Tuning.LeaseTTL, p.Tuning.SpeculateAfter)
	}
	last := time.Duration(-1 << 62)
	for i, e := range p.Events {
		if e.At < 0 {
			return fmt.Errorf("fault: event %d at negative time %v", i, e.At)
		}
		if e.At < last {
			return fmt.Errorf("fault: event %d at %v out of order (previous %v)", i, e.At, last)
		}
		last = e.At
		if e.Site < 0 {
			return fmt.Errorf("fault: event %d targets negative site %d", i, e.Site)
		}
		if e.Kind == Slowdown && !(e.Factor > 1) { // NaN too
			return fmt.Errorf("fault: event %d slowdown factor %g must be > 1", i, e.Factor)
		}
		if e.Kind != Slowdown && e.Factor != 0 {
			return fmt.Errorf("fault: event %d of kind %s has a factor; only a slowdown takes one", i, e.Kind)
		}
		switch e.Kind {
		case Crash, Partition, Slowdown, Recover:
		default:
			return fmt.Errorf("fault: event %d has unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// String renders the plan in its text format (one event per line, with a
// header line for non-default parameters). Parse reverses it.
func (p Plan) String() string {
	var b strings.Builder
	var hdr []string
	if p.RestartAfter > 0 {
		hdr = append(hdr, "restart="+p.RestartAfter.String())
	}
	if p.Tuning.CheckpointEveryJobs > 0 {
		hdr = append(hdr, "checkpoint="+strconv.Itoa(p.Tuning.CheckpointEveryJobs))
	}
	if p.Tuning.LeaseTTL > 0 {
		hdr = append(hdr, "lease="+p.Tuning.LeaseTTL.String())
	}
	if p.Tuning.SpeculateAfter > 0 {
		hdr = append(hdr, "speculate="+p.Tuning.SpeculateAfter.String())
	}
	if len(hdr) > 0 {
		b.WriteString("plan " + strings.Join(hdr, " ") + "\n")
	}
	for _, e := range p.Events {
		b.WriteString(e.String() + "\n")
	}
	return b.String()
}

// ParsePlan parses the text plan format: an optional leading
// "plan restart=10s checkpoint=100 lease=5s speculate=20s" parameter line
// (checkpoint is a job count, the others durations),
// then one event per line like "at=30s site=1 kind=crash" or
// "at=40s site=0 kind=slowdown factor=4". Blank lines and lines starting
// with '#' are ignored.
func ParsePlan(text string) (Plan, error) {
	var p Plan
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "plan" {
			for _, f := range fields[1:] {
				k, v, ok := strings.Cut(f, "=")
				if !ok {
					return Plan{}, fmt.Errorf("fault: line %d: bad parameter %q", ln+1, f)
				}
				var err error
				switch k {
				case "restart":
					p.RestartAfter, err = time.ParseDuration(v)
				case "checkpoint":
					p.Tuning.CheckpointEveryJobs, err = strconv.Atoi(v)
				case "lease":
					p.Tuning.LeaseTTL, err = time.ParseDuration(v)
				case "speculate":
					p.Tuning.SpeculateAfter, err = time.ParseDuration(v)
				default:
					return Plan{}, fmt.Errorf("fault: line %d: unknown parameter %q", ln+1, k)
				}
				if err != nil {
					return Plan{}, fmt.Errorf("fault: line %d: %s: %v", ln+1, k, err)
				}
			}
			continue
		}
		var e Event
		for _, f := range fields {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				return Plan{}, fmt.Errorf("fault: line %d: bad field %q", ln+1, f)
			}
			var err error
			switch k {
			case "at":
				e.At, err = time.ParseDuration(v)
			case "site":
				e.Site, err = strconv.Atoi(v)
			case "worker":
				e.Worker, err = strconv.Atoi(v)
			case "kind":
				e.Kind, err = parseKind(v)
			case "factor":
				e.Factor, err = strconv.ParseFloat(v, 64)
			default:
				err = fmt.Errorf("unknown field %q", k)
			}
			if err != nil {
				return Plan{}, fmt.Errorf("fault: line %d: %v", ln+1, err)
			}
		}
		p.Events = append(p.Events, e)
	}
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// splitmix64 is the deterministic pseudo-random stream used for jitter and
// seeded schedules (same generator the simulator uses for compute jitter).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RandomPlan derives a deterministic plan of n crash events from seed,
// spread uniformly over (0, horizon) across the given sites — the seedable
// schedule generator used by property tests and fault drills. The same
// (seed, n, horizon, sites) always yields the same plan.
func RandomPlan(seed uint64, n int, horizon time.Duration, sites []int) Plan {
	if n <= 0 || horizon <= 0 || len(sites) == 0 {
		return Plan{}
	}
	events := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		h := splitmix64(seed + uint64(i)*0x9e3779b97f4a7c15)
		at := time.Duration(float64(horizon) * (float64(h>>11) / float64(1<<53)))
		site := sites[int(splitmix64(h)%uint64(len(sites)))]
		events = append(events, Event{At: at, Site: site, Kind: Crash})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return Plan{Events: events}
}

// ---------------------------------------------------------------------------
// Error classification.

// fencedMarker is the substring IsFenced matches on. It must appear in every
// fencing rejection so the classification survives transports that flatten
// errors to strings (protocol.ErrorReply).
const fencedMarker = "site fenced"

// ErrFenced is returned by the head to an incarnation it has declared failed
// (lease expiry, connection loss): its job requests, commits, checkpoints and
// result submissions are refused so a dead-marked-but-alive straggler cannot
// double-count contributions the head already reissued elsewhere. The fenced
// master must re-register (Hello) to revive its lease and resume from its
// last checkpoint.
var ErrFenced = errors.New(fencedMarker + ": lease revoked; re-register to resume from the last checkpoint")

// IsFenced reports whether err is a fencing rejection, either directly
// (errors.Is) or after a transport round-trip reduced it to its message.
func IsFenced(err error) bool {
	return err != nil && (errors.Is(err, ErrFenced) || strings.Contains(err.Error(), fencedMarker))
}

// PermanentError marks errors that retrying cannot fix (missing objects,
// out-of-range reads, malformed requests). Retry loops consult IsPermanent
// to stop burning attempts on hopeless fetches.
type PermanentError interface {
	error
	Permanent() bool
}

// IsPermanent reports whether any error in err's chain declares itself
// permanent via the PermanentError interface.
func IsPermanent(err error) bool {
	var pe PermanentError
	return errors.As(err, &pe) && pe.Permanent()
}

// permanent wraps an error to mark it permanent.
type permanent struct{ err error }

func (p permanent) Error() string   { return p.err.Error() }
func (p permanent) Unwrap() error   { return p.err }
func (p permanent) Permanent() bool { return true }

// AsPermanent marks err permanent (nil stays nil).
func AsPermanent(err error) error {
	if err == nil {
		return nil
	}
	return permanent{err: err}
}

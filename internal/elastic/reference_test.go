package elastic

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// The reference: the model-free estimator as a separate type, fed by its
// executor each tick and handed to StepWith. An arbiter without an Env
// folds the same drain itself in Step; both must decide alike.

// throughputEstimator derives raw(rem, w) from observed progress: it
// watches the total remaining bytes shrink between ticks, smooths the drain
// rate with an EWMA (weight 0.3 on the newest sample), and assumes
// throughput scales linearly with the worker count, the static fleet
// counting as one worker-equivalent.
type throughputEstimator struct {
	mu        sync.Mutex
	lastAt    time.Duration
	lastBytes int64
	haveLast  bool
	rate      float64 // bytes/sec at the observed fleet
	rateUnits float64 // worker-equivalents the rate was observed at
}

// observe feeds one progress snapshot: total remaining bytes at now, with
// `workers` burst workers active.
func (t *throughputEstimator) observe(now time.Duration, remaining int64, workers int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.haveLast && now > t.lastAt && remaining <= t.lastBytes {
		dt := (now - t.lastAt).Seconds()
		sample := float64(t.lastBytes-remaining) / dt
		if t.rate == 0 {
			t.rate = sample
		} else {
			t.rate = 0.3*sample + 0.7*t.rate
		}
		t.rateUnits = 1 + float64(workers)
	}
	t.lastAt, t.lastBytes, t.haveLast = now, remaining, true
}

// raw scales the observed drain rate to a fleet of `workers` and answers
// how long rem would take at that rate.
func (t *throughputEstimator) raw(rem map[int]int64, workers int) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rate <= 0 || t.rateUnits <= 0 {
		return 0, false
	}
	rate := t.rate * (1 + float64(workers)) / t.rateUnits
	if rate <= 0 {
		return 0, false
	}
	var remaining int64
	for _, b := range rem {
		remaining += b
	}
	return time.Duration(float64(remaining) / rate * float64(time.Second)), true
}

// TestDrainModelMatchesReference runs random sessions through two
// Env-less arbiters, one stepped on the reference estimator and one on its
// own drain model, and requires every decision to be identical. Each
// session has 1–4 queries at a time with mixed deadlines, budgets and
// fleet bounds over two data sites, some admitted mid-session; the work
// drains at a noisy rate that grows with the fleet, stalls on some ticks,
// and ticks are 0–3 s apart. Both arbiters see the same launches and
// drains, carried out as an executor would, some a tick late, plus
// operator-started workers the arbiter never asked for.
func TestDrainModelMatchesReference(t *testing.T) {
	const sessions, ticks = 3000, 40
	rng := rand.New(rand.NewSource(47))
	moved := 0
	for s := 0; s < sessions; s++ {
		cfg := ArbiterConfig{MaxWorkers: 1 + rng.Intn(6)}
		if rng.Intn(2) == 0 {
			cfg.ScaleUpCooldown = time.Duration(rng.Intn(6)) * time.Second
		}
		if rng.Intn(2) == 0 {
			cfg.LaunchLeadTime = time.Duration(rng.Intn(4)) * time.Second
		}
		ref, err := NewArbiter(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewArbiter(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		est := &throughputEstimator{}
		both := func(f func(a *Arbiter)) { f(ref); f(got) }

		nextQuery := 0
		admit := func() QueryLoad {
			l := QueryLoad{Query: nextQuery, Weight: rng.Intn(3), Remaining: map[int]int64{
				0: rng.Int63n(4 << 20), 1: rng.Int63n(4 << 20)}}
			nextQuery++
			if rng.Intn(4) > 0 {
				p := &Policy{}
				if rng.Intn(3) > 0 {
					p.Deadline = time.Duration(5+rng.Intn(90)) * time.Second
				}
				if rng.Intn(3) == 0 {
					p.Budget = 0.0005 * float64(1+rng.Intn(20))
				}
				if rng.Intn(5) == 0 {
					p.MinWorkers = rng.Intn(2)
				}
				if rng.Intn(3) == 0 {
					p.MaxWorkers = rng.Intn(5)
				}
				l.Policy = p
			}
			return l
		}
		var loads []QueryLoad
		for range 1 + rng.Intn(4) {
			loads = append(loads, admit())
		}
		speed := float64(20<<10) * (0.5 + rng.Float64()) // bytes/s per worker-equivalent
		now, nextSite := time.Duration(0), 1000
		var pendingDrain []int
		for tick := 0; tick < ticks; tick++ {
			var total int64
			for _, l := range loads {
				for _, b := range l.Remaining {
					total += b
				}
			}
			est.observe(now, total, len(ref.ActiveSites()))
			want := ref.StepWith(now, loads, est.raw)
			d := got.Step(now, loads)
			if !reflect.DeepEqual(d, want) {
				t.Fatalf("session %d tick %d at %v:\n got %+v\nwant %+v", s, tick, now, d, want)
			}
			if d.Action != Hold {
				moved++
			}

			// The executor: drains ordered last tick complete now; this
			// tick's complete now or next tick; launches succeed at once.
			for _, site := range pendingDrain {
				both(func(a *Arbiter) { a.WorkerStopped(now, site) })
			}
			pendingDrain = pendingDrain[:0]
			switch d.Action {
			case ScaleUp:
				for i := 0; i < d.Delta; i++ {
					site := nextSite
					nextSite++
					both(func(a *Arbiter) { a.WorkerLaunched(now, site) })
				}
			case ScaleDown:
				for _, site := range d.Sites {
					if rng.Intn(2) == 0 {
						both(func(a *Arbiter) { a.WorkerStopped(now, site) })
					} else {
						pendingDrain = append(pendingDrain, site)
					}
				}
			}
			if rng.Intn(25) == 0 { // an operator starts a worker unasked
				site := nextSite
				nextSite++
				both(func(a *Arbiter) { a.WorkerLaunched(now, site) })
			}

			// The work drains for dt at the fleet's noisy rate, split
			// evenly over the queries; a stalled tick drains nothing, a
			// drained query leaves the loads, and now and then a query
			// arrives, so the remaining work grows.
			dt := time.Duration(rng.Intn(4)) * time.Second
			now += dt
			if len(loads) < 4 && rng.Intn(15) == 0 {
				loads = append(loads, admit())
			}
			if rng.Intn(6) == 0 {
				continue
			}
			drain := int64(speed * float64(1+len(ref.ActiveSites())) * (0.3 + rng.Float64()) * dt.Seconds())
			kept := loads[:0]
			for _, l := range loads {
				rem := make(map[int]int64, len(l.Remaining))
				var left int64
				for site, b := range l.Remaining {
					b = max(b-drain/int64(2*len(loads)), 0)
					rem[site] = b
					left += b
				}
				if left > 0 {
					l.Remaining = rem
					kept = append(kept, l)
				}
			}
			loads = kept
		}
	}
	if moved < 3000 {
		t.Fatalf("only %d non-hold decisions: the sessions barely exercise the arbiter", moved)
	}
	t.Logf("%d sessions × %d ticks: %d non-hold decisions, all identical", sessions, ticks, moved)
}

package elastic

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/costmodel"
	"repro/internal/estimate"
	"repro/internal/hybridsim"
)

// DefaultArbiterMaxWorkers caps the session fleet when neither the arbiter
// config nor any query policy names a ceiling.
const DefaultArbiterMaxWorkers = 8

// QueryLoad is one admitted query's view as the arbiter sees it each tick:
// identity, fair-share weight, the query's elastic policy (nil for a query
// that merely rides along on fair share), and its uncommitted bytes keyed by
// hosting site. Callers include a query while it has work remaining or a
// further pass to run (Remaining is then empty); a query absent from a tick
// is over, and its deadline anchor forgotten.
type QueryLoad struct {
	Query     int
	Weight    int
	Policy    *Policy
	Remaining map[int]int64
}

// ArbiterConfig carries the session-wide arbiter knobs — everything that is
// NOT per-query. Per-query deadline/budget/min/max arrive in each
// QueryLoad.Policy.
type ArbiterConfig struct {
	// Interval is the tick period (DefaultInterval when 0).
	Interval time.Duration
	// ScaleUpCooldown suppresses a second scale-up within the window.
	ScaleUpCooldown time.Duration
	// ScaleDownDrainTimeout bounds a graceful drain; past it the executor
	// falls back to declaring the site failed (requeue + reissue recover the
	// work). The arbiter itself does not time drains — this is executor
	// configuration carried with the cadence knobs.
	ScaleDownDrainTimeout time.Duration
	// LaunchLeadTime is the expected instance boot time. Newly requested
	// workers contribute nothing for this long, so the deadline test for a
	// grown fleet is now + LaunchLeadTime + est(w'), and best-effort growth
	// must beat the current estimate even after paying the boot.
	LaunchLeadTime time.Duration
	// MaxWorkers is the hard session fleet cap; it also stands in for any
	// query policy with MaxWorkers 0. Default DefaultArbiterMaxWorkers.
	MaxWorkers int
	// Pricing prices instance time. Zero = costmodel.DefaultPricingCurrent().
	Pricing costmodel.Pricing
}

// EffectiveInterval returns the tick period with the default applied.
func (c ArbiterConfig) EffectiveInterval() time.Duration {
	if c.Interval > 0 {
		return c.Interval
	}
	return DefaultInterval
}

// ValidateQueryPolicy checks a per-query policy for admission. MaxWorkers 0
// is valid: it means "the arbiter's session cap".
func ValidateQueryPolicy(p Policy) error {
	if p.Deadline < 0 || p.Budget < 0 {
		return fmt.Errorf("elastic: negative deadline or budget")
	}
	if p.MinWorkers < 0 {
		return fmt.Errorf("elastic: negative MinWorkers")
	}
	if p.MaxWorkers < 0 {
		return fmt.Errorf("elastic: negative MaxWorkers")
	}
	if p.MaxWorkers > 0 && p.MinWorkers > p.MaxWorkers {
		return fmt.Errorf("elastic: MinWorkers %d exceeds MaxWorkers %d", p.MinWorkers, p.MaxWorkers)
	}
	return nil
}

// Arbiter is the session's ONE fleet-sizing feedback loop: it serves every
// admitted query, each carrying its own deadline/budget policy (a
// single-query run is the N=1 case). Per tick it re-runs the analytic
// estimator against the aggregate remaining work for the fleet estimate,
// and against each query's fair-share-scaled remaining work
// (estimate.ShareScaledRemaining — a query holding weight w of W total gets
// w/W of the fleet's throughput) for the per-query deadline tests. It picks
// one fleet size that satisfies every feasible deadline under the summed
// budgets, scales up through a smallest-sufficient-fleet search, and drains
// billing-quantum-aware.
//
// The arbiter is pure policy: no goroutines, clocks or I/O. Step is a pure
// function of its input stream — (now, loads) ticks plus
// WorkerLaunched/WorkerStopped events — so the same code drives
// hybridsim.RunMulti (via SimElastic, virtual clock) and the live driver,
// and a replayed input stream reproduces the decision log byte for byte.
//
// Budget semantics: the realized instance spend is attributed to queries by
// fair-share weight each tick (CostByQuery). A query's Budget caps its
// attributed share of realized-plus-projected spend; the summed positive
// budgets cap the aggregate projection. Either breach forces a drain.
// Infeasible deadlines: a deadline no affordable fleet can meet (even at
// the cap) stops constraining the fleet search — the arbiter sizes for the
// tightest FEASIBLE deadline set and otherwise grows best-effort.
//
// Deadline anchor: a query's deadline runs from the tick BEFORE the one that
// first sees it (0 before the first tick). The admission happened somewhere
// in that window, so the arbiter never steers later than the policy allows.
type Arbiter struct {
	cfg ArbiterConfig
	env *Env

	mu        sync.Mutex
	episodes  []episode
	lastUp    time.Duration
	scaledUp  bool
	decisions []Decision
	anchor    map[int]time.Duration // active query → deadline anchor

	// Per-query cost attribution: realized spend split by fair-share weight
	// over the queries active at each tick.
	attributed   map[int]float64
	lastRealized float64

	// Model-feedback calibration, maintained by observe: an EWMA of the ratio
	// between the observed AGGREGATE drain rate and the rate the nominal model
	// predicts. The environment model is built from pre-run calibration, so
	// an unanticipated degradation (a slowed cluster, a failing disk array)
	// would otherwise leave the arbiter over-optimistic; dividing every
	// estimate by this ratio folds realized progress back into the model.
	// lastAt doubles as the previous tick's time for deadline anchoring.
	calib   float64
	lastAt  time.Duration
	lastRem int64
	haveObs bool
}

// NewArbiter builds a session arbiter over env's worker model. env supplies
// the model-based estimator used by Step; it may be nil when the caller only
// uses StepWith (an observed-throughput estimator, as the headnode advisor
// does).
func NewArbiter(cfg ArbiterConfig, env *Env) (*Arbiter, error) {
	if cfg.MaxWorkers < 0 {
		return nil, fmt.Errorf("elastic: negative MaxWorkers")
	}
	if cfg.MaxWorkers == 0 {
		cfg.MaxWorkers = DefaultArbiterMaxWorkers
	}
	if cfg.LaunchLeadTime < 0 {
		return nil, fmt.Errorf("elastic: negative LaunchLeadTime")
	}
	if cfg.Pricing == (costmodel.Pricing{}) {
		cfg.Pricing = costmodel.DefaultPricingCurrent()
	}
	if err := cfg.Pricing.Validate(); err != nil {
		return nil, err
	}
	return &Arbiter{
		cfg: cfg, env: env, calib: 1,
		anchor:     make(map[int]time.Duration),
		attributed: make(map[int]float64),
	}, nil
}

// Config returns the arbiter's (defaulted) configuration.
func (a *Arbiter) Config() ArbiterConfig { return a.cfg }

// WorkerLaunched records that a burst worker came up at the given site —
// the executor calls it once the launch succeeded, starting the billing
// clock for the worker's episode.
func (a *Arbiter) WorkerLaunched(now time.Duration, site int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.episodes = append(a.episodes, episode{site: site, launched: now})
}

// WorkerStopped records that the worker at site fully drained (or was
// forcefully failed) and its instance released, ending its billing episode.
func (a *Arbiter) WorkerStopped(now time.Duration, site int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range a.episodes {
		ep := &a.episodes[i]
		if ep.site == site && !ep.stopped {
			ep.stopped = true
			ep.stoppedAt = now
			return
		}
	}
}

// ActiveSites returns the sites of running, non-draining workers in launch
// order.
func (a *Arbiter) ActiveSites() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.activeSitesLocked()
}

func (a *Arbiter) activeSitesLocked() []int {
	var out []int
	for _, ep := range a.episodes {
		if !ep.stopped && !ep.draining {
			out = append(out, ep.site)
		}
	}
	return out
}

// Decisions returns the full decision log, one entry per tick.
func (a *Arbiter) Decisions() []Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Decision(nil), a.decisions...)
}

// InstanceCost returns the realized instance spend so far: every episode
// billed from launch to its stop (or to now if still running).
func (a *Arbiter) InstanceCost(now time.Duration) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.realizedLocked(now, now)
}

// CostByQuery returns the per-query attribution of the realized instance
// spend: each tick's spend increment split over the then-active queries by
// fair-share weight. Spend accrued while no query was active (the final
// drain tail) stays unattributed, so the values sum to at most
// InstanceCost.
func (a *Arbiter) CostByQuery() map[int]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[int]float64, len(a.attributed))
	for q, c := range a.attributed {
		out[q] = c
	}
	return out
}

func (a *Arbiter) instancesPerWorker() int {
	cores := 0
	if a.env != nil {
		cores = a.env.Worker.Cores
	}
	return instancesForWorker(a.cfg.Pricing, cores)
}

func (a *Arbiter) episodeCost(d time.Duration) float64 {
	return episodeCostFor(a.cfg.Pricing, a.instancesPerWorker(), d)
}

// realizedLocked prices all episodes with running ones billed through
// horizon (draining ones through now — they are about to stop).
func (a *Arbiter) realizedLocked(now, horizon time.Duration) float64 {
	return realizedEpisodes(a.cfg.Pricing, a.instancesPerWorker(), a.episodes, now, horizon)
}

// projectedLocked is the budget projection: realized episodes plus the
// current fleet billed through finish plus `add` new workers billed from
// now to finish.
func (a *Arbiter) projectedLocked(now, finish time.Duration, add int) float64 {
	total := a.realizedLocked(now, finish)
	if add > 0 && finish > now {
		total += float64(add) * a.episodeCost(finish-now)
	}
	return total
}

// attributeLocked splits the spend accrued since the last tick over the
// active queries by weight and rolls the anchor map forward: first-seen
// queries are anchored at prev (the previous tick), vanished ones dropped.
func (a *Arbiter) attributeLocked(now, prev time.Duration, loads []QueryLoad) {
	realized := a.realizedLocked(now, now)
	delta := realized - a.lastRealized
	totalWeight := 0
	for _, l := range loads {
		totalWeight += weightOf(l)
	}
	if delta > 0 && totalWeight > 0 {
		for _, l := range loads {
			a.attributed[l.Query] += delta * float64(weightOf(l)) / float64(totalWeight)
		}
		a.lastRealized = realized
	} else if delta > 0 {
		// No active query to charge: leave the delta pending so a later tick
		// with queries does not silently absorb it; it stays unattributed.
		a.lastRealized = realized
	}
	seen := make(map[int]bool, len(loads))
	for _, l := range loads {
		seen[l.Query] = true
		if _, ok := a.anchor[l.Query]; !ok {
			a.anchor[l.Query] = prev
		}
	}
	for q := range a.anchor {
		if !seen[q] {
			delete(a.anchor, q)
		}
	}
}

func weightOf(l QueryLoad) int {
	if l.Weight < 1 {
		return 1
	}
	return l.Weight
}

// effMax is a query policy's worker ceiling with the session cap standing in
// for 0, clamped to the session cap.
func (a *Arbiter) effMax(p *Policy) int {
	if p == nil || p.MaxWorkers <= 0 || p.MaxWorkers > a.cfg.MaxWorkers {
		return a.cfg.MaxWorkers
	}
	return p.MaxWorkers
}

// fleetBoundsLocked derives the session floor and cap from the active
// policies: floor = max MinWorkers (a floor is an explicit ask, honored for
// every query that made one), cap = max effective MaxWorkers (the fleet
// serves everyone, so the most permissive ceiling governs; queries with a
// lower ceiling are protected by their budget, not the fleet size).
func (a *Arbiter) fleetBounds(loads []QueryLoad) (floor, cap int) {
	for _, l := range loads {
		if l.Policy == nil {
			continue
		}
		if l.Policy.MinWorkers > floor {
			floor = l.Policy.MinWorkers
		}
		if m := a.effMax(l.Policy); m > cap {
			cap = m
		}
	}
	if cap == 0 {
		cap = a.cfg.MaxWorkers
	}
	if floor > cap {
		floor = cap
	}
	return floor, cap
}

// Step runs one arbiter tick. loads carries every query with work left
// (policied or not); the arbiter aggregates them for the fleet estimate and
// tests each policied query's deadline against its fair-share-scaled
// remaining work. The caller executes the returned Decision (launch Delta
// workers / drain Sites).
func (a *Arbiter) Step(now time.Duration, loads []QueryLoad) Decision {
	return a.StepWith(now, loads, func(rem map[int]int64, workers int) (time.Duration, bool) {
		if a.env == nil {
			return 0, false
		}
		e, err := estimate.MakespanRemaining(a.env.ConfigWith(workers), rem)
		if err != nil {
			return 0, false
		}
		return e.Total(), true
	})
}

// StepWith is Step with the raw model estimator injected: raw answers "how
// long would THIS remaining map take on a fleet of workers" (ok=false when
// no estimate is available, which holds the fleet). Step passes the
// estimate.MakespanRemaining model; the headnode advisor passes observed
// throughput (ThroughputEstimator.Raw); tests pass synthetic curves.
func (a *Arbiter) StepWith(now time.Duration, loads []QueryLoad,
	raw func(rem map[int]int64, workers int) (time.Duration, bool)) Decision {
	aggregate := make(map[int]int64)
	totalWeight := 0
	for _, l := range loads {
		totalWeight += weightOf(l)
		for site, b := range l.Remaining {
			aggregate[site] += b
		}
	}

	rawAgg := func(workers int) (time.Duration, bool) { return raw(aggregate, workers) }
	calib, prev := a.observe(now, aggregate, rawAgg)
	estAgg := func(workers int) (time.Duration, bool) {
		e, ok := rawAgg(workers)
		if !ok {
			return 0, false
		}
		return time.Duration(float64(e) / calib), true
	}
	// estQ is the per-query finish estimate: the query's remaining bytes
	// inflated by its inverse fair share, so the full-fleet model answers
	// "when does THIS query finish while the others take their cut".
	estQ := func(l QueryLoad, workers int) (time.Duration, bool) {
		scaled := estimate.ShareScaledRemaining(l.Remaining, weightOf(l), totalWeight)
		e, ok := raw(scaled, workers)
		if !ok {
			return 0, false
		}
		return time.Duration(float64(e) / calib), true
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	a.attributeLocked(now, prev, loads)
	w := len(a.activeSitesLocked())
	d := Decision{At: now, Action: Hold, Workers: w}

	// Session idle: every query drained. Nothing justifies the fleet any
	// more — release it in one forced drain (the paid-through grace is moot
	// with no work left, and with a zero estimate the renewal filter would
	// otherwise never pick a candidate).
	if len(loads) == 0 {
		d.ProjectedCost = a.realizedLocked(now, now)
		if w == 0 {
			d.Reason = "no active queries"
		} else {
			sites := a.activeSitesLocked()
			sort.Ints(sites)
			for i := range a.episodes {
				ep := &a.episodes[i]
				if !ep.stopped && !ep.draining {
					ep.draining = true
				}
			}
			d.Action = ScaleDown
			d.Delta = -w
			d.Sites = sites
			d.Workers = 0
			d.Reason = fmt.Sprintf("no active queries; draining %d workers", w)
		}
		a.decisions = append(a.decisions, d)
		return d
	}

	floor, cap := a.fleetBounds(loads)

	estNow, ok := estAgg(w)
	if !ok {
		d.Reason = "no estimate available"
		d.ProjectedCost = a.realizedLocked(now, now)
		a.decisions = append(a.decisions, d)
		return d
	}
	d.Estimate = estNow
	finish := now + estNow
	d.ProjectedCost = a.projectedLocked(now, finish, 0)

	// deadline queries, in stable (query id) order for deterministic logs.
	var dls []dlq
	for _, l := range loads {
		if l.Policy == nil || l.Policy.Deadline <= 0 {
			continue
		}
		dls = append(dls, dlq{load: l, target: a.anchor[l.Query] + targetDeadline(l.Policy.Deadline)})
	}
	sort.Slice(dls, func(i, j int) bool { return dls[i].load.Query < dls[j].load.Query })

	switch {
	case a.overBudgetLocked(now, finish, loads, d.ProjectedCost) != "" && w > floor:
		a.scaleDownLocked(&d, now, estNow, estAgg, nil, floor, true,
			a.overBudgetLocked(now, finish, loads, d.ProjectedCost))
	case w < floor:
		// An explicit MinWorkers floor is provisioned unconditionally — it is
		// the operator's pre-commitment, not a feedback decision.
		d.Action = ScaleUp
		d.Delta = floor - w
		d.Workers = floor
		if e, ok := estAgg(floor); ok {
			d.Estimate = a.cfg.LaunchLeadTime + e
		}
		d.ProjectedCost = a.projectedLocked(now, now+d.Estimate, d.Delta)
		d.Reason = fmt.Sprintf("scale %d→%d workers: fleet below MinWorkers floor", w, floor)
		a.lastUp = now
		a.scaledUp = true
	case a.anyDeadlineAtRisk(now, w, dls, estQ):
		a.scaleUpLocked(&d, now, estNow, estAgg, estQ, dls, loads, cap)
	default:
		a.scaleDownLocked(&d, now, estNow, estAgg, func(ww int) bool {
			return a.deadlinesSafeAt(now, ww, dls, estQ)
		}, floor, false, "")
	}
	a.decisions = append(a.decisions, d)
	return d
}

// dlq pairs a deadline-carrying query with its margined absolute target.
type dlq struct {
	load   QueryLoad
	target time.Duration // anchor + margined deadline
}

// anyDeadlineAtRisk reports whether some policied query's share-scaled
// estimate overshoots its margined deadline at the current fleet.
func (a *Arbiter) anyDeadlineAtRisk(now time.Duration, w int,
	dls []dlq, estQ func(QueryLoad, int) (time.Duration, bool)) bool {
	for _, q := range dls {
		e, ok := estQ(q.load, w)
		if ok && now+e > q.target {
			return true
		}
	}
	return false
}

// deadlinesSafeAt is the drain hysteresis: every deadline query must still
// finish in half its remaining margin at the smaller fleet.
func (a *Arbiter) deadlinesSafeAt(now time.Duration, w int,
	dls []dlq, estQ func(QueryLoad, int) (time.Duration, bool)) bool {
	for _, q := range dls {
		e, ok := estQ(q.load, w)
		if !ok || now+2*e > q.target {
			return false
		}
	}
	return true
}

// overBudgetLocked returns a non-empty reason when the projection breaches
// either the aggregate summed budget or any single query's attributed
// budget.
func (a *Arbiter) overBudgetLocked(now, finish time.Duration, loads []QueryLoad, projected float64) string {
	// Aggregate cap: the sum of the positive budgets, binding only when
	// every policied query is budgeted (one unlimited query lifts the
	// session cap; the per-query checks below still bind the others).
	sum, budgeted, unlimited := 0.0, 0, false
	for _, l := range loads {
		if l.Policy == nil {
			continue
		}
		if l.Policy.Budget > 0 {
			sum += l.Policy.Budget
			budgeted++
		} else {
			unlimited = true
		}
	}
	if budgeted > 0 && !unlimited && projected > sum {
		return fmt.Sprintf("projected cost $%.4f exceeds summed budget $%.4f", projected, sum)
	}
	// Per-query: attributed so far plus this query's weight share of the
	// yet-unrealized projection.
	realized := a.lastRealized
	future := projected - realized
	if future < 0 {
		future = 0
	}
	totalWeight := 0
	for _, l := range loads {
		totalWeight += weightOf(l)
	}
	ids := make([]int, 0, len(loads))
	byID := make(map[int]QueryLoad, len(loads))
	for _, l := range loads {
		ids = append(ids, l.Query)
		byID[l.Query] = l
	}
	sort.Ints(ids)
	for _, id := range ids {
		l := byID[id]
		if l.Policy == nil || l.Policy.Budget <= 0 || totalWeight == 0 {
			continue
		}
		proj := a.attributed[id] + future*float64(weightOf(l))/float64(totalWeight)
		if proj > l.Policy.Budget {
			return fmt.Sprintf("query %d projected cost $%.4f exceeds budget $%.4f", id, proj, l.Policy.Budget)
		}
	}
	return ""
}

// affordableLocked reports whether growing to finish with add extra workers
// keeps every budget intact.
func (a *Arbiter) affordableLocked(now, finish time.Duration, add int, loads []QueryLoad) bool {
	projected := a.projectedLocked(now, finish, add)
	return a.overBudgetLocked(now, finish, loads, projected) == ""
}

// scaleUpLocked picks the smallest fleet meeting every feasible deadline:
// pass 1 requires all deadline queries, pass 2 drops the queries whose
// deadline no fleet ≤ cap can meet (infeasible deadlines stop constraining
// the search), and the final fallback grows best-effort within budget.
func (a *Arbiter) scaleUpLocked(d *Decision, now, estNow time.Duration,
	estAgg func(int) (time.Duration, bool), estQ func(QueryLoad, int) (time.Duration, bool),
	dls []dlq, loads []QueryLoad, cap int) {
	w := d.Workers
	if w >= cap {
		d.Reason = fmt.Sprintf("deadline at risk but at fleet cap MaxWorkers=%d", cap)
		return
	}
	if a.scaledUp && a.cfg.ScaleUpCooldown > 0 && now-a.lastUp < a.cfg.ScaleUpCooldown {
		d.Reason = "deadline at risk but inside scale-up cooldown"
		return
	}
	// New workers boot for LaunchLeadTime before contributing: a grown
	// fleet's finish is pushed out by the boot, so the arbiter provisions
	// ahead of need instead of discovering the boot cost after the deadline.
	lead := a.cfg.LaunchLeadTime
	meets := func(q dlq, ww int) bool {
		e, ok := estQ(q.load, ww)
		return ok && now+lead+e <= q.target
	}
	tryFleet := func(required []dlq) (int, time.Duration) {
		for ww := w + 1; ww <= cap; ww++ {
			all := true
			for _, q := range required {
				if !meets(q, ww) {
					all = false
					break
				}
			}
			if !all {
				continue
			}
			e, ok := estAgg(ww)
			if !ok {
				continue
			}
			if a.affordableLocked(now, now+lead+e, ww-w, loads) {
				return ww, e
			}
		}
		return -1, 0
	}

	target, targetEst := tryFleet(dls)
	reason := "meets all deadlines"
	if target == -1 {
		// Drop infeasible deadlines: those not met even at the cap.
		var feasible []dlq
		for _, q := range dls {
			if meets(q, cap) {
				feasible = append(feasible, q)
			}
		}
		if len(feasible) > 0 && len(feasible) < len(dls) {
			target, targetEst = tryFleet(feasible)
			reason = fmt.Sprintf("meets feasible deadlines (%d infeasible)", len(dls)-len(feasible))
		}
	}
	if target == -1 {
		// Best effort: the largest affordable fleet that still improves the
		// aggregate estimate net of the boot time.
		for ww := cap; ww > w; ww-- {
			e, ok := estAgg(ww)
			if !ok {
				continue
			}
			if lead+e < estNow && a.affordableLocked(now, now+lead+e, ww-w, loads) {
				target, targetEst = ww, e
				reason = "best effort (no affordable fleet meets deadline)"
				break
			}
		}
	}
	if target == -1 {
		d.Reason = "deadline at risk but no affordable scale-up improves it"
		return
	}
	d.Action = ScaleUp
	d.Delta = target - w
	d.Workers = target
	d.Estimate = lead + targetEst
	d.ProjectedCost = a.projectedLocked(now, now+lead+targetEst, d.Delta)
	d.Reason = fmt.Sprintf("scale %d→%d workers: est %v %s",
		w, target, targetEst.Round(time.Millisecond), reason)
	a.lastUp = now
	a.scaledUp = true
}

// scaleDownLocked drains one worker when doing so is free of deadline risk
// (or forced by a budget breach). Only workers whose paid-for quantum runs
// out before the remaining horizon are candidates — a worker already paid
// through the finish is free to keep. Among candidates the one with the
// soonest renewal drains first. Hysteresis is supplied by the caller
// (deadlinesSafe nil means forced — budget breaches drain regardless).
func (a *Arbiter) scaleDownLocked(d *Decision, now, estNow time.Duration,
	estAgg func(int) (time.Duration, bool), deadlinesSafe func(int) bool,
	floor int, forced bool, forcedReason string) {
	w := d.Workers
	if w <= floor {
		if d.Reason == "" {
			d.Reason = "deadline met, fleet at floor"
		}
		return
	}
	if !forced && a.scaledUp && a.cfg.ScaleUpCooldown > 0 && now-a.lastUp < a.cfg.ScaleUpCooldown {
		// Symmetric cooldown: a worker we just paid to launch is not drained
		// on the next tick merely because the estimate swung back — the
		// estimate calibration needs a few samples to settle.
		d.Reason = "surplus capacity but inside scale-up cooldown"
		return
	}
	bestIdx, bestRenewal := -1, time.Duration(0)
	for i := range a.episodes {
		ep := &a.episodes[i]
		if ep.stopped || ep.draining {
			continue
		}
		nr := renewalAt(a.cfg.Pricing, *ep, now)
		if !forced && nr-now >= estNow {
			continue // its current quantum covers the horizon: free to keep
		}
		if bestIdx == -1 || nr < bestRenewal {
			bestIdx, bestRenewal = i, nr
		}
	}
	if bestIdx == -1 {
		d.Reason = "deadline met; remaining workers are paid through the horizon"
		return
	}
	if !forced {
		// Hysteresis: only drain when the smaller fleet would still finish in
		// half the time left before every (margined) deadline. Estimate noise
		// must not churn the fleet — each churn cycle bills a fresh quantum
		// and loses ramp time — so unforced drains need an overwhelming
		// surplus, which in practice means the tail of the run.
		e, ok := estAgg(w - 1)
		if !ok || (deadlinesSafe != nil && !deadlinesSafe(w-1)) {
			d.Reason = "surplus renewal due but draining would risk a deadline"
			return
		}
		d.Estimate = e
		d.Reason = fmt.Sprintf("drain site %d: renewal due at %v, deadlines still met with %d workers",
			a.episodes[bestIdx].site, bestRenewal.Round(time.Millisecond), w-1)
	} else {
		if e, ok := estAgg(w - 1); ok {
			d.Estimate = e
		}
		d.Reason = fmt.Sprintf("drain site %d: %s", a.episodes[bestIdx].site, forcedReason)
	}
	ep := &a.episodes[bestIdx]
	ep.draining = true
	d.Action = ScaleDown
	d.Delta = -1
	d.Sites = []int{ep.site}
	d.Workers = w - 1
	d.ProjectedCost = a.projectedLocked(now, now+d.Estimate, 0)
}

// observe folds one aggregate progress sample into the throughput
// calibration and returns the current correction factor (< 1 means the
// system is running slower than the nominal model predicts) together with
// the previous tick's time (0 on the first tick).
func (a *Arbiter) observe(now time.Duration, aggregate map[int]int64,
	raw func(int) (time.Duration, bool)) (calib float64, prev time.Duration) {
	var total int64
	for _, b := range aggregate {
		total += b
	}
	a.mu.Lock()
	w := len(a.activeSitesLocked())
	last, lastAt, have := a.lastRem, a.lastAt, a.haveObs
	a.lastRem, a.lastAt, a.haveObs = total, now, true
	calib = a.calib
	a.mu.Unlock()
	if !have || now <= lastAt || total <= 0 || last <= total {
		return calib, lastAt // nothing drained this tick: leave the calibration be
	}
	modelEst, ok := raw(w)
	if !ok || modelEst <= 0 {
		return calib, lastAt
	}
	modelRate := float64(total) / modelEst.Seconds()
	observedRate := float64(last-total) / (now - lastAt).Seconds()
	ratio := observedRate / modelRate
	ratio = min(max(ratio, 1.0/16), 16)
	calib = 0.5*calib + 0.5*ratio
	calib = min(max(calib, 1.0/16), 16)
	a.mu.Lock()
	a.calib = calib
	a.mu.Unlock()
	return calib, lastAt
}

// SimElastic binds the arbiter to a hybridsim multi-query run through the
// per-query Decide hook: the SAME Step code ticks on the virtual
// clock, fed each query's remaining work and weight, with policies looked
// up by query index in the supplied map (nil entries — and absent ones —
// ride along unpolicied). siteBase ≤ 0 uses DefaultWorkerSiteBase.
func (a *Arbiter) SimElastic(siteBase int, policies map[int]*Policy) *hybridsim.ElasticSim {
	if siteBase <= 0 {
		siteBase = DefaultWorkerSiteBase
	}
	var worker hybridsim.ClusterModel
	var paths map[int]hybridsim.PathModel
	if a.env != nil {
		worker = a.env.Worker
		paths = a.env.WorkerPaths
	}
	return &hybridsim.ElasticSim{
		Interval:       a.cfg.EffectiveInterval(),
		Worker:         worker,
		WorkerPaths:    paths,
		WorkerSiteBase: siteBase,
		Decide: func(now time.Duration, sims []hybridsim.ElasticLoad, workers []int) hybridsim.ElasticDecision {
			loads := make([]QueryLoad, 0, len(sims))
			for _, l := range sims {
				loads = append(loads, QueryLoad{
					Query: l.Query, Weight: l.Weight,
					Policy: policies[l.Query], Remaining: l.Remaining,
				})
			}
			d := a.Step(now, loads)
			switch d.Action {
			case ScaleUp:
				return hybridsim.ElasticDecision{Add: d.Delta}
			case ScaleDown:
				return hybridsim.ElasticDecision{Drain: append([]int(nil), d.Sites...)}
			}
			return hybridsim.ElasticDecision{}
		},
		OnLaunch:  a.WorkerLaunched,
		OnDrained: a.WorkerStopped,
	}
}

package head

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// faultOpts bundles the knobs the fault tests vary; timing lives in the
// shared config.Tuning now, so the helper splits them for Config.
type faultOpts struct {
	LeaseTTL           time.Duration
	SpeculateAfter     time.Duration
	StragglerFactor    float64
	WatchdogMinSamples int
	Store              fault.Store
	Obs                *obs.Obs
}

// testFaultHead returns a fault-tolerant head with one all-masters-rule
// query (ID 0) admitted over a 10-job pool.
func testFaultHead(t *testing.T, clusters int, fo faultOpts) (*Head, *jobs.Pool) {
	t.Helper()
	ix, err := chunk.Layout("h", 100, 4, 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := jobs.NewPool(ix, jobs.Placement{0, 1}, jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := protocol.JobSpec{App: "sum", UnitSize: 4}
	if err := EncodeIndexSpec(&spec, ix); err != nil {
		t.Fatal(err)
	}
	h, err := New(Config{
		ExpectClusters: clusters, Logf: t.Logf,
		Tuning: config.Tuning{LeaseTTL: fo.LeaseTTL, SpeculateAfter: fo.SpeculateAfter,
			StragglerFactor: fo.StragglerFactor, WatchdogMinSamples: fo.WatchdogMinSamples},
		Fault: FaultConfig{Store: fo.Store},
		Obs:   fo.Obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Admit(QueryConfig{Pool: pool, Reducer: sumReducer{}, Spec: spec, ExpectAll: true}); err != nil {
		t.Fatal(err)
	}
	return h, pool
}

// complete commits js for testFaultHead's query.
func complete(h *Head, site int, js []jobs.Job) ([]int, error) {
	return h.CompleteQueryJobs(0, site, js)
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// virtualClock returns an Obs whose clock the test advances by hand, and
// that clock's reading.
func virtualClock() (*obs.Obs, *time.Duration) {
	now := new(time.Duration)
	return &obs.Obs{Clock: obs.ClockFunc(func() time.Duration { return *now })}, now
}

func TestLeaseExpiryRequeuesInFlight(t *testing.T) {
	o, now := virtualClock()
	h, pool := testFaultHead(t, 2, faultOpts{LeaseTTL: 40 * time.Millisecond, Obs: o})
	register(t, h, 0, 1)
	js, _, _ := reqJobs(h, 0, 3)
	if len(js) != 3 {
		t.Fatalf("granted %d", len(js))
	}
	if pool.Remaining() != 7 {
		t.Fatalf("remaining = %d", pool.Remaining())
	}
	// Site 1 keeps heartbeating; site 0 goes silent and must be failed.
	for *now < 100*time.Millisecond {
		*now += 5 * time.Millisecond
		h.Heartbeat(1)
		h.Tick(*now)
	}
	if pool.Remaining() != 10 || pool.Outstanding() != 0 {
		t.Fatalf("after site 0's lease expiry: remaining %d, outstanding %d; want 10 and 0",
			pool.Remaining(), pool.Outstanding())
	}
}

func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	o, now := virtualClock()
	h, pool := testFaultHead(t, 1, faultOpts{LeaseTTL: 60 * time.Millisecond, Obs: o})
	register(t, h, 0)
	js, _, _ := reqJobs(h, 0, 2)
	if len(js) != 2 {
		t.Fatalf("granted %d", len(js))
	}
	for i := 0; i < 20; i++ {
		h.Heartbeat(0)
		*now += 10 * time.Millisecond
		h.Tick(*now)
	}
	if got := pool.Outstanding(); got != 2 {
		t.Fatalf("outstanding = %d after heartbeats, want 2 (lease must not expire)", got)
	}
}

// TestVirtualClockHeadStartsNoGoroutine: only the wall clock ticks by
// itself. A head on any other clock leaves Tick to the clock's owner, so New
// starts no goroutine even with leases and speculation on.
func TestVirtualClockHeadStartsNoGoroutine(t *testing.T) {
	o, _ := virtualClock()
	before := runtime.NumGoroutine()
	h, err := New(Config{ExpectClusters: 1, Obs: o,
		Tuning: config.Tuning{LeaseTTL: time.Second, SpeculateAfter: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines %d → %d across New on a virtual clock", before, after)
	}
	if got := h.TickInterval(); got != 250*time.Millisecond {
		t.Errorf("TickInterval = %v, want a quarter of the 1s lease", got)
	}
}

// TestWatchdogFlagsSitesInOrder: when one evaluation flags two slow sites,
// the watchdog speculates them in site order, so the flags, the speculative
// copies and the grants that hand them out replay identically — on a
// virtual clock that is what byte-identical simulator runs rest on.
func TestWatchdogFlagsSitesInOrder(t *testing.T) {
	run := func() (flagged []string, copies []int) {
		ix, err := chunk.Layout("w", 300, 4, 100, 10) // 3 files × 10 chunks
		if err != nil {
			t.Fatal(err)
		}
		pool, err := jobs.NewPool(ix, jobs.Placement{0, 1, 2}, jobs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		o, now := virtualClock()
		h, err := New(Config{ExpectClusters: 3, Obs: o,
			Tuning: config.Tuning{SpeculateAfter: time.Hour, StragglerFactor: 2, WatchdogMinSamples: 2},
			Logf: func(format string, args ...any) {
				if line := fmt.Sprintf(format, args...); strings.Contains(line, "watchdog flagged") {
					flagged = append(flagged, line)
				}
			}})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Shutdown()
		if _, err := h.Admit(QueryConfig{Pool: pool, Reducer: sumReducer{}}); err != nil {
			t.Fatal(err)
		}
		register(t, h, 0, 1, 2)
		// Site 0 sets a 1ms median; sites 1 and 2 each commit two of four
		// jobs after 30ms and hold the rest.
		for i := 0; i < 4; i++ {
			js, _, _ := reqJobs(h, 0, 2)
			*now += time.Millisecond
			if _, err := complete(h, 0, js); err != nil {
				t.Fatal(err)
			}
		}
		slow := map[int][]jobs.Job{}
		for _, site := range []int{1, 2} {
			slow[site], _, _ = reqJobs(h, site, 4)
		}
		*now += 30 * time.Millisecond
		for _, site := range []int{1, 2} {
			if _, err := complete(h, site, slow[site][:2]); err != nil {
				t.Fatal(err)
			}
		}
		// One evaluation flags both; site 0 then collects the copies.
		h.Tick(*now)
		js, _, _ := reqJobs(h, 0, 10)
		for _, j := range js {
			copies = append(copies, j.ID)
		}
		return flagged, copies
	}
	flags, copies := run()
	if len(flags) != 2 || !strings.Contains(flags[0], "site 1 ") || !strings.Contains(flags[1], "site 2 ") {
		t.Fatalf("flags = %q, want site 1 then site 2", flags)
	}
	for i := 0; i < 50; i++ {
		f, c := run()
		if fmt.Sprint(f) != fmt.Sprint(flags) || fmt.Sprint(c) != fmt.Sprint(copies) {
			t.Fatalf("run %d: flags %q grants %v; first run: flags %q grants %v", i, f, c, flags, copies)
		}
	}
}

func TestCheckpointSaveAndPrune(t *testing.T) {
	store := fault.NewMemStore()
	h, pool := testFaultHead(t, 1, faultOpts{Store: store})
	register(t, h, 0)
	js, _, _ := reqJobs(h, 0, 4)
	if len(js) != 4 {
		t.Fatalf("granted %d", len(js))
	}
	if _, err := complete(h, 0, js); err != nil {
		t.Fatal(err)
	}

	// Checkpoint covering the first two completions.
	ck := fault.Checkpoint{
		Site: 0, Seq: 1, Object: encodeSum(5),
		Completed: []int{js[0].ID, js[1].ID},
	}
	data := ck.Encode()
	if err := h.CheckpointSave(protocol.CheckpointSave{Site: 0, Seq: 1, Data: data}); err != nil {
		t.Fatal(err)
	}
	if got, err := store.Get(fault.QueryKey("", 0, 0)); err != nil || len(got) != len(data) {
		t.Fatalf("stored checkpoint = %d bytes, %v", len(got), err)
	}

	// A stale or replayed sequence number must be rejected.
	if err := h.CheckpointSave(protocol.CheckpointSave{Site: 0, Seq: 1, Data: data}); err == nil {
		t.Error("stale checkpoint seq accepted")
	}
	// Garbage must be rejected before touching the store.
	if err := h.CheckpointSave(protocol.CheckpointSave{Site: 0, Seq: 2, Data: []byte("junk")}); err == nil {
		t.Error("corrupt checkpoint accepted")
	}

	// On failure only the two un-checkpointed completions are reissued.
	before := pool.Remaining() // 6: 10 - 4 completed
	h.FailSite(0)
	if got := pool.Remaining(); got != before+2 {
		t.Errorf("remaining after failure = %d, want %d (2 un-checkpointed jobs reissued)", got, before+2)
	}
}

func TestCheckpointWithoutStoreRejected(t *testing.T) {
	h, _ := testFaultHead(t, 1, faultOpts{LeaseTTL: time.Hour})
	if err := h.CheckpointSave(protocol.CheckpointSave{Site: 0, Seq: 1}); err == nil {
		t.Error("checkpoint accepted with no store configured")
	}
}

func TestReregistrationRecoversFromCheckpoint(t *testing.T) {
	store := fault.NewMemStore()
	h, pool := testFaultHead(t, 1, faultOpts{Store: store, LeaseTTL: time.Hour})
	register(t, h, 0)
	js, _, _ := reqJobs(h, 0, 4)
	if _, err := complete(h, 0, js); err != nil {
		t.Fatal(err)
	}
	ids := make([]int, len(js))
	for i, j := range js {
		ids[i] = j.ID
	}
	ck := fault.Checkpoint{Site: 0, Seq: 1, Object: encodeSum(9), Completed: ids}
	data := ck.Encode()
	if err := h.CheckpointSave(protocol.CheckpointSave{Site: 0, Seq: 1, Data: data}); err != nil {
		t.Fatal(err)
	}
	// Site 0 is still holding two more jobs when it crashes and restarts.
	more, _, _ := reqJobs(h, 0, 2)
	if len(more) != 2 {
		t.Fatalf("granted %d", len(more))
	}
	if _, err := h.RegisterSite(protocol.Hello{Site: 0, Cluster: "a"}); err != nil {
		t.Fatalf("re-registration rejected: %v", err)
	}
	spec, err := h.QuerySpec(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(spec.Checkpoint) != string(data) {
		t.Errorf("recovered checkpoint = %d bytes, want %d", len(spec.Checkpoint), len(data))
	}
	// The crashed incarnation's in-flight jobs went back to the pool; the
	// checkpointed completions did not.
	if got := pool.Remaining(); got != 10-4 {
		t.Errorf("remaining = %d, want %d", got, 10-4)
	}
	if got := pool.Outstanding(); got != 0 {
		t.Errorf("outstanding = %d, want 0", got)
	}
}

func TestFreshRegistrationStillLimited(t *testing.T) {
	h, _ := testFaultHead(t, 1, faultOpts{LeaseTTL: time.Hour})
	register(t, h, 0)
	// A different site over capacity is still rejected even with faults on.
	if _, err := h.RegisterSite(protocol.Hello{Site: 1, Cluster: "b"}); err == nil {
		t.Error("over-registration accepted with fault tolerance enabled")
	}
}

// TestFencedSiteRejectedUntilReregister drives the unfenced-straggler
// double-count scenario end to end at the head: a site is declared failed
// while still alive (a lease expiry beat its heartbeats), its
// un-checkpointed work is recomputed elsewhere, and the "dead" incarnation
// then tries to keep participating. Every such attempt — job requests,
// commits, checkpoints, and the final result carrying the same folds the
// survivor recomputed — must be fenced off until the site re-registers.
func TestFencedSiteRejectedUntilReregister(t *testing.T) {
	store := fault.NewMemStore()
	h, pool := testFaultHead(t, 2, faultOpts{Store: store, LeaseTTL: time.Hour})
	register(t, h, 0, 1)
	js, _, _ := reqJobs(h, 0, 4)
	if len(js) != 4 {
		t.Fatalf("granted %d", len(js))
	}
	if _, err := complete(h, 0, js); err != nil {
		t.Fatal(err)
	}
	// Failure detector fires while site 0 is in fact still alive: its 4
	// un-checkpointed completions go back for recomputation.
	h.FailSite(0)

	if _, _, err := reqJobs(h, 0, 4); !fault.IsFenced(err) {
		t.Errorf("RequestJobs from fenced site: err = %v, want fenced", err)
	}
	if _, err := complete(h, 0, js); !fault.IsFenced(err) {
		t.Errorf("CompleteJobs from fenced site: err = %v, want fenced", err)
	}
	ck := fault.Checkpoint{Site: 0, Seq: 1, Object: encodeSum(7), Completed: []int{js[0].ID}}
	if err := h.CheckpointSave(protocol.CheckpointSave{Site: 0, Seq: 1, Data: ck.Encode()}); !fault.IsFenced(err) {
		t.Errorf("CheckpointSave from fenced site: err = %v, want fenced", err)
	}
	if _, err := store.Get(fault.QueryKey("", 0, 0)); err == nil {
		t.Error("fenced checkpoint was persisted")
	}
	// Heartbeats must not un-fence: only re-registration revives the lease.
	h.Heartbeat(0)
	if _, _, err := reqJobs(h, 0, 1); !fault.IsFenced(err) {
		t.Errorf("RequestJobs after heartbeat: err = %v, want still fenced", err)
	}

	// The survivor recomputes everything, including site 0's reissued jobs.
	for {
		got, wait, err := reqJobs(h, 1, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			if wait {
				t.Fatal("empty grant with wait=true while survivor still working")
			}
			break
		}
		if _, err := complete(h, 1, got); err != nil {
			t.Fatal(err)
		}
	}
	if !pool.Drained() {
		t.Fatal("pool not drained by survivor")
	}

	if err := h.SubmitQueryResult(protocol.ReductionResult{Site: 1, Object: encodeSum(42)}); err != nil {
		t.Fatal(err)
	}
	// The fenced incarnation's object holds the very folds the survivor
	// recomputed; merging it would double-count them.
	if err := h.SubmitQueryResult(protocol.ReductionResult{Site: 0, Object: encodeSum(999)}); !fault.IsFenced(err) {
		t.Fatalf("SubmitQueryResult from fenced site: err = %v, want fenced", err)
	}
	q := h.queries[0]
	select {
	case <-q.Done():
		t.Fatal("query sealed by a fenced submit")
	default:
	}

	// Re-registration revives the site; with no checkpoint it contributes
	// nothing it hasn't re-earned — here, the identity object.
	if _, err := h.RegisterSite(protocol.Hello{Site: 0, Cluster: "a"}); err != nil {
		t.Fatalf("re-registration: %v", err)
	}
	if _, wait, err := reqJobs(h, 0, 4); err != nil || wait {
		t.Fatalf("revived RequestJobs: wait=%v err=%v", wait, err)
	}
	if err := h.SubmitQueryResult(protocol.ReductionResult{Site: 0, Object: encodeSum(0)}); err != nil {
		t.Fatalf("revived submit: %v", err)
	}
	obj, _, _, err := q.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*sumObj).total; got != 42 {
		t.Errorf("final = %d, want 42 (fenced contribution must not be double-counted)", got)
	}
}

func TestSpeculationDuplicatesStragglers(t *testing.T) {
	h, pool := testFaultHead(t, 2, faultOpts{SpeculateAfter: 30 * time.Millisecond})
	register(t, h, 0, 1)
	// Site 0 takes the entire pool and then stalls on its last 2 jobs.
	js, _, _ := reqJobs(h, 0, 10)
	if len(js) != 10 {
		t.Fatalf("granted %d", len(js))
	}
	if dups, err := complete(h, 0, js[:8]); err != nil || len(dups) != 0 {
		t.Fatalf("completing head of pool: dups=%v err=%v", dups, err)
	}
	// An empty grant while stragglers are outstanding must say "poll again".
	if got, wait, _ := reqJobs(h, 1, 4); len(got) != 0 || !wait {
		t.Fatalf("grant = %d jobs, wait = %v; want empty+wait", len(got), wait)
	}
	// The watchdog speculates the 2 stragglers back into the pool.
	var spec []jobs.Job
	waitFor(t, "speculative copies", func() bool {
		spec, _, _ = reqJobs(h, 1, 4)
		return len(spec) == 2
	})
	// Site 1's copies land first; the original site's commits become dups.
	if dups, err := complete(h, 1, spec); err != nil || len(dups) != 0 {
		t.Fatalf("speculative commit: dups=%v err=%v", dups, err)
	}
	dups, err := complete(h, 0, js[8:])
	if err != nil {
		t.Fatal(err)
	}
	if len(dups) != 2 {
		t.Errorf("straggler commits: %d dups, want 2", len(dups))
	}
	if !pool.Drained() {
		t.Error("pool not drained after speculation resolved")
	}
}

// TestLatencyWatchdogFlagsSlowSite: the live watchdog compares each site's
// p99 grant→commit latency against the query's median and, on the first poll
// after the evidence accumulates, flags the slow site exactly once —
// speculating its in-flight jobs, ticking the labeled counter, and emitting
// a trace instant.
func TestLatencyWatchdogFlagsSlowSite(t *testing.T) {
	var now time.Duration
	o := obs.New(obs.ClockFunc(func() time.Duration { return now }))
	o.Tracer.Enable()
	h, pool := testFaultHead(t, 2, faultOpts{
		// SpeculateAfter arms the speculation machinery; a huge value keeps
		// the empty-pool timer out of the picture so only the latency
		// watchdog can speculate.
		SpeculateAfter:     time.Hour,
		StragglerFactor:    2,
		WatchdogMinSamples: 2,
		Obs:                o,
	})
	register(t, h, 0, 1)

	// The healthy site establishes the cluster median with quick commits.
	for i := 0; i < 2; i++ {
		js, _, err := reqJobs(h, 1, 2)
		if err != nil || len(js) == 0 {
			t.Fatalf("healthy grant: %d jobs, err=%v", len(js), err)
		}
		now += time.Millisecond
		if _, err := complete(h, 1, js); err != nil {
			t.Fatal(err)
		}
	}

	// The slow site takes four jobs and commits half of them only after a
	// long stall, leaving the rest in flight.
	slow, _, err := reqJobs(h, 0, 4)
	if err != nil || len(slow) != 4 {
		t.Fatalf("slow grant: %d jobs, err=%v", len(slow), err)
	}
	now += 30 * time.Millisecond
	if _, err := complete(h, 0, slow[:2]); err != nil {
		t.Fatal(err)
	}

	// The next poll — any site's — runs the watchdog: the slow site is
	// flagged and its two in-flight jobs re-enter the pool as copies the
	// healthy site can pick up on its following poll.
	if _, _, err := reqJobs(h, 1, 1); err != nil {
		t.Fatal(err)
	}
	copies, _, err := reqJobs(h, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[int]bool{slow[2].ID: true, slow[3].ID: true}
	ncopies := 0
	for _, j := range copies {
		if ids[j.ID] {
			ncopies++
		}
	}
	if ncopies != 2 {
		t.Fatalf("speculative copies granted = %d of %v, want 2", ncopies, copies)
	}

	snap := o.Registry.Snapshot()
	var flaggedKey string
	for k := range snap {
		if strings.HasPrefix(k, "head_straggler_flagged_total") {
			flaggedKey = k
		}
	}
	if flaggedKey == "" || !strings.Contains(flaggedKey, `site="0"`) || snap[flaggedKey] != 1 {
		t.Errorf("head_straggler_flagged_total: key=%q snap=%v", flaggedKey, snap[flaggedKey])
	}

	// Flagged once: further slow commits and polls must not re-flag.
	if _, err := complete(h, 0, slow[2:]); err != nil {
		t.Fatal(err)
	}
	if _, err := complete(h, 1, copies); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reqJobs(h, 1, 1); err != nil {
		t.Fatal(err)
	}
	if got := o.Registry.Snapshot()[flaggedKey]; got != 1 {
		t.Errorf("site re-flagged: counter = %d, want 1", got)
	}

	var sb strings.Builder
	if err := o.Tracer.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "straggler site 0") {
		t.Error("trace missing the watchdog's straggler instant")
	}
	_ = pool
}

// TestCommitRacingFailSiteIsReissued: a commit that passes the fence check
// just before FailSite marks its site dead must not leave the job completed
// on behalf of the dead incarnation — nothing that incarnation folded
// survives (no checkpoint, no result), so after the failure every job it
// committed has to be grantable again.
func TestCommitRacingFailSiteIsReissued(t *testing.T) {
	for i := 0; i < 400; i++ {
		h, pool := testFaultHead(t, 1, faultOpts{LeaseTTL: time.Hour})
		register(t, h, 0)
		js, _, err := reqJobs(h, 0, 1000)
		if err != nil || len(js) == 0 {
			t.Fatalf("grant: %v, %v", js, err)
		}
		var committed atomic.Int32
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, j := range js {
				if _, err := complete(h, 0, []jobs.Job{j}); err != nil {
					return // fenced
				}
				committed.Add(1)
			}
		}()
		for committed.Load() == 0 { // fail the site mid-stream
			runtime.Gosched()
		}
		h.FailSite(0)
		<-done
		if got := pool.Remaining(); got != len(js) {
			t.Fatalf("iteration %d: %d of %d jobs grantable after the site failed; the rest stay committed by an incarnation that is gone",
				i, got, len(js))
		}
		h.Shutdown()
	}
}

// TestReportedSiteReportsReissuedWorkAgain: a site that has already reported
// is handed work reissued from a failed site. Its commits cancel the report,
// the drained pool asks it for a second object, the head merges both, and
// the checkpoint the first object superseded is neither reloaded nor
// overwritten by a stale save.
func TestReportedSiteReportsReissuedWorkAgain(t *testing.T) {
	ix, err := chunk.Layout("h", 100, 4, 50, 10) // 10 jobs
	if err != nil {
		t.Fatal(err)
	}
	pool, err := jobs.NewPool(ix, jobs.Placement{0, 1}, jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(Config{ExpectClusters: 2, Logf: t.Logf, Tuning: config.Tuning{LeaseTTL: time.Hour},
		Fault: FaultConfig{Store: fault.NewMemStore()}})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	spec := protocol.JobSpec{App: "sum", UnitSize: 4}
	if err := EncodeIndexSpec(&spec, ix); err != nil {
		t.Fatal(err)
	}
	q, err := h.Admit(QueryConfig{Pool: pool, Reducer: sumReducer{}, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	register(t, h, 0, 1)
	var want uint64
	for id := 0; id < ix.NumChunks(); id++ {
		want += jobVal(id)
	}
	// fold polls once for up to n jobs at site and commits them.
	fold := func(site, n int) (sum uint64, ids []int) {
		t.Helper()
		js, _, err := reqJobs(h, site, n)
		if err != nil {
			t.Fatal(err)
		}
		if dups, err := h.CompleteQueryJobs(q.ID(), site, js); err != nil || len(dups) > 0 {
			t.Fatalf("site %d commit: dups %v, err %v", site, dups, err)
		}
		for _, j := range js {
			sum += jobVal(j.ID)
			ids = append(ids, j.ID)
		}
		return sum, ids
	}
	// doneFor polls site and reports whether its reply asks for q's object.
	doneFor := func(site int) bool {
		t.Helper()
		rep, err := h.Poll(site, 0)
		if err != nil {
			t.Fatal(err)
		}
		return len(rep.Done) == 1 && rep.Done[0] == q.ID()
	}
	sum0, ids0 := fold(0, 5)
	sum1, _ := fold(1, 10)
	if sum0 == 0 || sum1 == 0 || pool.Remaining() != 0 {
		t.Fatalf("both sites should hold work: %d / %d, remaining %d", sum0, sum1, pool.Remaining())
	}
	ck := fault.Checkpoint{Site: 0, Seq: 1, Object: encodeSum(sum0), Completed: ids0}.Encode()
	if err := h.CheckpointSave(protocol.CheckpointSave{Site: 0, Seq: 1, Query: q.ID(), Data: ck}); err != nil {
		t.Fatal(err)
	}
	if !doneFor(0) {
		t.Fatal("drained pool sent site 0 no Done")
	}
	if err := h.SubmitQueryResult(protocol.ReductionResult{Site: 0, Query: q.ID(), Object: encodeSum(sum0)}); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckpointSave(protocol.CheckpointSave{Site: 0, Seq: 2, Query: q.ID(), Data: ck}); err == nil {
		t.Error("checkpoint of an object the head already merged was accepted")
	}
	if s, err := h.QuerySpec(0, q.ID()); err != nil || len(s.Checkpoint) != 0 {
		t.Errorf("QuerySpec after the report: %d checkpoint bytes, err %v; want none", len(s.Checkpoint), err)
	}

	// Site 1 dies before reporting: everything it folded is reissued, and
	// only site 0 is left to fold it.
	h.FailSite(1)
	extra, _ := fold(0, 10)
	if extra != sum1 {
		t.Fatalf("site 0 folded %d of the reissued work, want %d", extra, sum1)
	}
	select {
	case <-q.Done():
		t.Fatal("query sealed without site 0's second object")
	default:
	}
	if !doneFor(0) {
		t.Fatal("site 0 was not asked for the object holding the reissued folds")
	}
	if err := h.SubmitQueryResult(protocol.ReductionResult{Site: 0, Query: q.ID(), Object: encodeSum(extra)}); err != nil {
		t.Fatal(err)
	}
	obj, reports, _, err := q.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*sumObj).total; got != want {
		t.Errorf("final = %d, want %d", got, want)
	}
	if len(reports) != 1 || reports[0].Site != 0 {
		t.Errorf("reports = %+v, want one merged report from site 0", reports)
	}
}

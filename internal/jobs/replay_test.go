package jobs

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"slices"
	"testing"
)

// replayScheduleHash pins every answer the pool gives across 50 seeded
// random schedules over 3 sites. Change it only with a scheduling change
// that is meant to move decisions; a pure representation change of the
// pool's state must leave it byte-identical. Re-pinned when requeueing a
// job that was already pending began resetting its site's cursor: seed 35
// had ended with 15 jobs stranded pending.
const replayScheduleHash = "d3b051d1a52ab8e3"

// replaySchedule drives one seeded random schedule — Assign, Commit
// (duplicates, late commits from a failed site and unknown or out-of-range
// IDs included), FailSite, Reissue, SpeculateOutstanding and SpeculateSite
// — and writes every returned job, dup flag, error, requeue list and
// OutstandingAt / RemainingBytesBySite answer to w.
func replaySchedule(t *testing.T, seed int64, w io.Writer) {
	t.Helper()
	const sites = 3
	rng := rand.New(rand.NewSource(seed))
	ix := mustIndex(t, 3*4*10+7, 10, 3) // 13 files, chunks of 3,3,3,1 units
	placement := make(Placement, len(ix.Files))
	for i := range placement {
		placement[i] = rng.Intn(sites)
	}
	opts := []Options{{}, {ScatterGroups: true}, {Steal: StealRoundRobin}, {DisableStealing: true}}[seed%4]
	p, err := NewPool(ix, placement, opts)
	if err != nil {
		t.Fatal(err)
	}
	var all []Job // every job by ID, as NewPool numbers them
	for fi, f := range ix.Files {
		for _, ref := range f.Chunks {
			all = append(all, Job{ID: len(all), Ref: ref, Site: placement[fi]})
		}
	}
	n := len(all)
	var held [sites][]Job
	var committed, stale []Job
	commit := func(site int, j Job) {
		dup, err := p.Commit(site, j)
		fmt.Fprintf(w, "commit %d %d dup=%v err=%v\n", site, j.ID, dup, err != nil)
		if err == nil && !dup {
			committed = append(committed, j)
		}
	}
	for step := 0; step < 400; step++ {
		site := rng.Intn(sites)
		fmt.Fprintf(w, "step %d site %d: ", step, site)
		switch op := rng.Intn(16); {
		case op < 5:
			js := p.Assign(site, 1+rng.Intn(6))
			fmt.Fprintf(w, "assign %v\n", js)
			held[site] = append(held[site], js...)
		case op < 8 && len(held[site]) > 0:
			k := rng.Intn(len(held[site]))
			commit(site, held[site][k])
			held[site] = slices.Delete(held[site], k, k+1)
		case op < 9 && len(committed) > 0:
			commit(site, committed[rng.Intn(len(committed))])
		case op < 10 && len(stale) > 0:
			k := rng.Intn(len(stale))
			commit(site, stale[k])
			stale = slices.Delete(stale, k, k+1)
		case op < 11:
			if k := rng.Intn(4); k < 3 {
				commit(site, Job{ID: []int{-1, n, n + 7}[k]})
			} else {
				commit(site, all[rng.Intn(n)]) // never granted, or not any more
			}
		case op < 12:
			fmt.Fprintf(w, "fail %v\n", p.FailSite(site))
			stale = append(stale, held[site]...)
			held[site] = nil
		case op < 13 && len(committed) > 0:
			var js []Job
			for _, j := range committed {
				if rng.Intn(4) == 0 {
					js = append(js, j)
				}
			}
			js = append(js, Job{ID: -3}, Job{ID: n})
			fmt.Fprintf(w, "reissue %d\n", p.Reissue(js))
		case op < 14:
			fmt.Fprintf(w, "speculate %v\n", p.SpeculateOutstanding())
		case op < 15:
			fmt.Fprintf(w, "speculate site %v\n", p.SpeculateSite(site))
		default:
			fmt.Fprintf(w, "idle\n")
		}
		fmt.Fprintf(w, "  at %d %d %d bytes %v rem %d out %d drained %v\n",
			p.OutstandingAt(0), p.OutstandingAt(1), p.OutstandingAt(2),
			p.RemainingBytesBySite(), p.Remaining(), p.Outstanding(), p.Drained())
	}
	// Drain what is left, so the end state is pinned too.
	for round := 0; !p.Drained() && round < 10*n; round++ {
		site := round % sites
		for _, j := range held[site] {
			commit(site, j)
		}
		held[site] = p.Assign(site, 4)
		fmt.Fprintf(w, "drain %d %v\n", site, held[site])
	}
	fmt.Fprintf(w, "end drained %v rem %d out %d\n", p.Drained(), p.Remaining(), p.Outstanding())
	if !p.Drained() {
		t.Errorf("seed %d: schedule ends with %d jobs pending and %d outstanding", seed, p.Remaining(), p.Outstanding())
	}
}

// TestReplaySchedulesUnchanged: the pool's answers over 50 seeded random
// schedules hash to the pinned value, so a rewrite of its bookkeeping that
// changes any scheduling decision fails here, and every schedule drains.
func TestReplaySchedulesUnchanged(t *testing.T) {
	h := fnv.New64a()
	for seed := int64(0); seed < 50; seed++ {
		replaySchedule(t, seed, h)
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != replayScheduleHash {
		t.Fatalf("replayed schedules hash to %s, pinned %s: a scheduling decision changed", got, replayScheduleHash)
	}
}

package jobs

import (
	"sort"
	"testing"

	"repro/internal/chunk"
)

// poolFixture builds a pool over nFiles files × chunksPer chunks, with the
// first half of the files on site 0 and the rest on site 1.
func poolFixture(t *testing.T, nFiles, chunksPer int) *Pool {
	t.Helper()
	ix, err := chunk.Layout("data", int64(nFiles*chunksPer), 1, chunksPer, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(ix, SplitByFraction(nFiles, 0.5, 0, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCommitUnknownJob(t *testing.T) {
	p := poolFixture(t, 4, 4)
	if _, err := p.Commit(0, Job{ID: 3}); err == nil {
		t.Fatal("Commit of never-assigned job succeeded")
	}
}

func TestCompleteAlreadyCompletedJob(t *testing.T) {
	p := poolFixture(t, 4, 4)
	js := p.Assign(0, 1)
	if len(js) != 1 {
		t.Fatalf("Assign = %v", js)
	}
	if dup, err := p.Commit(0, js[0]); err != nil || dup {
		t.Fatalf("first commit: dup=%v err=%v", dup, err)
	}
	// A second completion — from this site or any other — is a dup, not an
	// error.
	for _, site := range []int{0, 1} {
		dup, err := p.Commit(site, js[0])
		if err != nil {
			t.Fatal(err)
		}
		if !dup {
			t.Fatalf("second commit from site %d not flagged dup", site)
		}
	}
	if p.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d after the commit", p.Outstanding())
	}
}

func TestCommitDedupesSpeculativeCopies(t *testing.T) {
	p := poolFixture(t, 2, 2)
	js := p.Assign(0, 1)
	if len(js) != 1 {
		t.Fatalf("Assign = %v", js)
	}
	if got := p.SpeculateOutstanding(); len(got) != 1 || got[0].ID != js[0].ID {
		t.Fatalf("SpeculateOutstanding = %v", got)
	}
	// Site 1 steals the speculative copy.
	var copyJob Job
	found := false
	for _, j := range p.Assign(1, 10) {
		if j.ID == js[0].ID {
			copyJob, found = j, true
		}
	}
	if !found {
		t.Fatal("speculative copy was not re-assigned")
	}
	if dup, err := p.Commit(1, copyJob); err != nil || dup {
		t.Fatalf("first commit: dup=%v err=%v", dup, err)
	}
	if dup, err := p.Commit(0, js[0]); err != nil || !dup {
		t.Fatalf("second commit: dup=%v err=%v, want dup", dup, err)
	}
}

func TestFailSiteRequeuesOutstanding(t *testing.T) {
	p := poolFixture(t, 4, 4)
	total := 16
	js := p.Assign(0, 5)
	if len(js) != 5 {
		t.Fatalf("Assign = %d jobs", len(js))
	}
	if _, err := p.Commit(0, js[0]); err != nil {
		t.Fatal(err)
	}
	requeued := p.FailSite(0)
	if len(requeued) != 4 {
		t.Fatalf("FailSite requeued %d jobs, want 4", len(requeued))
	}
	for i := 1; i < len(requeued); i++ {
		if requeued[i].ID <= requeued[i-1].ID {
			t.Fatal("FailSite result not sorted by ID")
		}
	}
	if p.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d after FailSite", p.Outstanding())
	}
	if p.Remaining() != total-1 {
		t.Fatalf("Remaining = %d, want %d", p.Remaining(), total-1)
	}
	// The requeued jobs are assignable again — including to the home site
	// whose cursor had already advanced past their file.
	seen := map[int]bool{js[0].ID: true}
	for {
		batch := p.Assign(0, 4)
		if len(batch) == 0 {
			break
		}
		for _, j := range batch {
			if seen[j.ID] {
				t.Fatalf("job %d assigned twice without failure", j.ID)
			}
			seen[j.ID] = true
			if _, err := p.Commit(0, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !p.Drained() {
		t.Fatal("pool not drained")
	}
	if len(seen) != total {
		t.Fatalf("completed %d jobs, want %d", len(seen), total)
	}
}

func TestReissueReturnsCommittedWork(t *testing.T) {
	p := poolFixture(t, 2, 2)
	js := p.Assign(0, 2)
	for _, j := range js {
		if dup, err := p.Commit(0, j); err != nil || dup {
			t.Fatalf("commit: dup=%v err=%v", dup, err)
		}
	}
	if n := p.Reissue(js); n != 2 {
		t.Fatalf("Reissue = %d, want 2", n)
	}
	// Reissuing again is a no-op until the jobs are re-committed.
	if n := p.Reissue(js); n != 0 {
		t.Fatalf("second Reissue = %d, want 0", n)
	}
	// Re-assigning hands the reissued jobs out again (plus, via stealing,
	// whatever else remains in the pool).
	got := p.Assign(0, 10)
	reassigned := map[int]bool{}
	for _, j := range got {
		reassigned[j.ID] = true
		if dup, err := p.Commit(0, j); err != nil || dup {
			t.Fatalf("re-commit: dup=%v err=%v", dup, err)
		}
	}
	for _, j := range js {
		if !reassigned[j.ID] {
			t.Fatalf("reissued job %d not re-assigned (got %v)", j.ID, got)
		}
	}
	if !p.Drained() {
		t.Fatal("pool not drained after reissue cycle")
	}
}

func TestLateCommitAfterRequeue(t *testing.T) {
	// A partitioned worker's completion arrives after the head already
	// requeued the job: the late commit wins and the pending copy vanishes.
	p := poolFixture(t, 2, 2)
	js := p.Assign(0, 1)
	p.FailSite(0) // head declares the partitioned site dead; job requeued
	if dup, err := p.Commit(0, js[0]); err != nil || dup {
		t.Fatalf("late commit: dup=%v err=%v", dup, err)
	}
	// The requeued copy must be gone: draining the rest never resurfaces it.
	for {
		batch := p.Assign(1, 10)
		if len(batch) == 0 {
			break
		}
		for _, j := range batch {
			if j.ID == js[0].ID {
				t.Fatal("late-committed job handed out again")
			}
			if _, err := p.Commit(1, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !p.Drained() {
		t.Fatal("pool not drained")
	}
}

// splitmix64 gives the property test a deterministic schedule stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TestPoolConservationUnderRandomFaults is the conservation property test:
// under random interleavings of assign, commit, crash (FailSite + Reissue
// of lost credit) and speculation, every job is credited exactly once in
// the final accounting and the pool drains.
func TestPoolConservationUnderRandomFaults(t *testing.T) {
	const (
		nFiles    = 6
		chunksPer = 8
		total     = nFiles * chunksPer
		sites     = 2
	)
	for seed := uint64(1); seed <= 25; seed++ {
		p := poolFixture(t, nFiles, chunksPer)
		rng := seed
		next := func(n uint64) uint64 {
			rng = splitmix64(rng)
			return rng % n
		}
		held := map[int][]Job{}     // site -> jobs currently held
		committed := map[int]Job{}  // credited contributions by job ID
		creditBy := map[int][]int{} // site -> job IDs it was credited for
		for step := 0; step < 10_000 && !p.Drained(); step++ {
			site := int(next(sites))
			switch next(12) {
			case 0, 1, 2, 3: // request work
				held[site] = append(held[site], p.Assign(site, int(next(4))+1)...)
			case 4, 5, 6, 7, 8, 9: // finish a held job
				if len(held[site]) == 0 {
					continue
				}
				i := int(next(uint64(len(held[site]))))
				j := held[site][i]
				held[site] = append(held[site][:i], held[site][i+1:]...)
				dup, err := p.Commit(site, j)
				if err != nil {
					t.Fatalf("seed %d: commit job %d: %v", seed, j.ID, err)
				}
				if dup {
					continue
				}
				if _, twice := committed[j.ID]; twice {
					t.Fatalf("seed %d: job %d credited twice", seed, j.ID)
				}
				committed[j.ID] = j
				creditBy[site] = append(creditBy[site], j.ID)
			case 10: // crash: in-flight lost, un-checkpointed credit reissued
				p.FailSite(site)
				held[site] = nil
				var lost []Job
				for _, id := range creditBy[site] {
					if j, ok := committed[id]; ok {
						lost = append(lost, j)
					}
				}
				creditBy[site] = nil
				n := p.Reissue(lost)
				if n != len(lost) {
					t.Fatalf("seed %d: Reissue = %d, want %d", seed, n, len(lost))
				}
				for _, j := range lost {
					delete(committed, j.ID)
				}
			case 11: // speculate stragglers
				p.SpeculateOutstanding()
			}
		}
		// Drain deterministically: both sites pull and commit until done,
		// flushing any still-held jobs from the random phase.
		for round := 0; !p.Drained(); round++ {
			if round > 10*total {
				t.Fatalf("seed %d: pool failed to drain (remaining=%d outstanding=%d)",
					seed, p.Remaining(), p.Outstanding())
			}
			progressed := false
			for site := 0; site < sites; site++ {
				for _, j := range held[site] {
					progressed = true
					if dup, err := p.Commit(site, j); err != nil {
						t.Fatalf("seed %d: flush commit: %v", seed, err)
					} else if !dup {
						if _, twice := committed[j.ID]; twice {
							t.Fatalf("seed %d: job %d credited twice in flush", seed, j.ID)
						}
						committed[j.ID] = j
					}
				}
				held[site] = nil
				for _, j := range p.Assign(site, 4) {
					progressed = true
					dup, err := p.Commit(site, j)
					if err != nil {
						t.Fatalf("seed %d: drain commit: %v", seed, err)
					}
					if !dup {
						if _, twice := committed[j.ID]; twice {
							t.Fatalf("seed %d: job %d credited twice in drain", seed, j.ID)
						}
						committed[j.ID] = j
					}
				}
			}
			if !progressed && !p.Drained() {
				t.Fatalf("seed %d: no progress (remaining=%d outstanding=%d)",
					seed, p.Remaining(), p.Outstanding())
			}
		}
		if len(committed) != total {
			t.Fatalf("seed %d: %d distinct jobs credited, want %d", seed, len(committed), total)
		}
		ids := make([]int, 0, total)
		for id := range committed {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for i, id := range ids {
			if id != i {
				t.Fatalf("seed %d: credited IDs not the full set: %v", seed, ids)
			}
		}
	}
}

func TestSpeculateSiteTargetsOnlyThatSite(t *testing.T) {
	p := poolFixture(t, 4, 4)
	slow := p.Assign(0, 3)
	healthy := p.Assign(1, 3)
	if len(slow) != 3 || len(healthy) != 3 {
		t.Fatalf("Assign = %d/%d jobs", len(slow), len(healthy))
	}
	// One of the slow site's jobs completes before the watchdog fires: it
	// must not be duplicated.
	if _, err := p.Commit(0, slow[0]); err != nil {
		t.Fatal(err)
	}

	got := p.SpeculateSite(0)
	if len(got) != 2 {
		t.Fatalf("SpeculateSite(0) = %v, want the 2 outstanding slow-site jobs", got)
	}
	want := map[int]bool{slow[1].ID: true, slow[2].ID: true}
	for i, j := range got {
		if !want[j.ID] {
			t.Errorf("SpeculateSite(0) returned job %d, not held by site 0", j.ID)
		}
		if i > 0 && got[i].ID <= got[i-1].ID {
			t.Error("SpeculateSite result not sorted by ID")
		}
	}
	// The healthy site's in-flight work stays single-copy.
	for _, j := range healthy {
		if want[j.ID] {
			t.Errorf("job %d held by both sites before any steal", j.ID)
		}
	}

	// Idempotent while the copies sit in the pending queue.
	if again := p.SpeculateSite(0); len(again) != 0 {
		t.Fatalf("second SpeculateSite(0) = %v, want none", again)
	}

	// The healthy site steals the copies; either commit wins, the other is
	// deduplicated, and the pool still drains exactly once per job.
	for _, j := range healthy {
		if _, err := p.Commit(1, j); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range p.Assign(1, 100) {
		if _, err := p.Commit(1, j); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range slow[1:] {
		dup, err := p.Commit(0, j)
		if err != nil {
			t.Fatal(err)
		}
		if !dup {
			t.Errorf("slow-site commit of job %d not flagged as duplicate", j.ID)
		}
	}
	for {
		js := p.Assign(0, 100)
		if len(js) == 0 {
			break
		}
		for _, j := range js {
			if _, err := p.Commit(0, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !p.Drained() {
		t.Fatalf("pool not drained: remaining=%d outstanding=%d", p.Remaining(), p.Outstanding())
	}
}

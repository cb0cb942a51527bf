package jobs

import (
	"testing"
	"testing/quick"

	"repro/internal/chunk"
)

func mustIndex(t testing.TB, units int64, fileUnits, chunkUnits int) *chunk.Index {
	t.Helper()
	ix, err := chunk.Layout("t", units, 8, fileUnits, chunkUnits)
	if err != nil {
		t.Fatalf("Layout: %v", err)
	}
	return ix
}

func TestSplitByFraction(t *testing.T) {
	p := SplitByFraction(32, 0.33, 0, 1)
	local := 0
	for _, s := range p {
		if s == 0 {
			local++
		}
	}
	if local != 11 { // round(0.33*32) = 11
		t.Errorf("local files = %d, want 11", local)
	}
	for _, frac := range []float64{-0.5, 0, 0.5, 1, 1.5} {
		p := SplitByFraction(10, frac, 0, 1)
		if len(p) != 10 {
			t.Errorf("frac %v: len = %d", frac, len(p))
		}
	}
}

func TestPlacementValidate(t *testing.T) {
	ix := mustIndex(t, 100, 25, 5)
	if err := (Placement{0, 1, 0}).Validate(ix); err == nil {
		t.Error("short placement accepted")
	}
	if err := (Placement{0, 1, 0, -1}).Validate(ix); err == nil {
		t.Error("negative site accepted")
	}
	if err := (Placement{0, 1, 0, 1}).Validate(ix); err != nil {
		t.Errorf("valid placement rejected: %v", err)
	}
}

func TestAssignPrefersLocalConsecutive(t *testing.T) {
	ix := mustIndex(t, 400, 100, 10) // 4 files × 10 chunks
	p, err := NewPool(ix, Placement{0, 0, 1, 1}, Options{})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	got := p.Assign(0, 5)
	if len(got) != 5 {
		t.Fatalf("assigned %d jobs, want 5", len(got))
	}
	for i, j := range got {
		if j.Site != 0 {
			t.Errorf("job %d from site %d, want local site 0", i, j.Site)
		}
		if j.Ref.File != 0 || j.Ref.Seq != i {
			t.Errorf("job %d = %v, want consecutive chunks of file 0", i, j.Ref)
		}
	}
	// Next request continues the same file before moving on.
	next := p.Assign(0, 7)
	if next[0].Ref.File != 0 || next[0].Ref.Seq != 5 {
		t.Errorf("continuation = %v, want file0/chunk5", next[0].Ref)
	}
	if next[5].Ref.File != 1 || next[5].Ref.Seq != 0 {
		t.Errorf("rollover = %v, want file1/chunk0", next[5].Ref)
	}
}

func TestStealingAfterLocalExhaustion(t *testing.T) {
	ix := mustIndex(t, 200, 100, 10) // 2 files × 10 chunks
	p, err := NewPool(ix, Placement{0, 1}, Options{})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	local := p.Assign(0, 10)
	for _, j := range local {
		if j.Site != 0 {
			t.Fatalf("expected local jobs first, got site %d", j.Site)
		}
	}
	stolen := p.Assign(0, 3)
	if len(stolen) != 3 {
		t.Fatalf("stole %d, want 3", len(stolen))
	}
	for _, j := range stolen {
		if j.Site != 1 {
			t.Errorf("stolen job from site %d, want 1", j.Site)
		}
	}
}

func TestStealMinContention(t *testing.T) {
	// Files 1 and 2 are remote to site 0. Site 1 is actively reading file 1,
	// so site 0's steal should come from file 2.
	ix := mustIndex(t, 300, 100, 10)
	p, err := NewPool(ix, Placement{0, 1, 1}, Options{})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	// Drain site 0's local jobs.
	if got := p.Assign(0, 10); len(got) != 10 {
		t.Fatalf("local drain: %d", len(got))
	}
	// Site 1 takes 4 jobs from its first file (file 1), raising contention.
	site1 := p.Assign(1, 4)
	for _, j := range site1 {
		if j.Ref.File != 1 {
			t.Fatalf("site 1 drew from file %d, want 1", j.Ref.File)
		}
	}
	stolen := p.Assign(0, 2)
	for _, j := range stolen {
		if j.Ref.File != 2 {
			t.Errorf("steal came from file %d, want least-contended file 2", j.Ref.File)
		}
	}
	// After completions release file 1's readers, contention flips: drain
	// file 2 by site 1 and verify steal source follows the counter.
	for _, j := range site1 {
		if _, err := p.Commit(1, j); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	site1b := p.Assign(1, 6) // continues file 1 (consecutive policy)
	_ = site1b
	stolen2 := p.Assign(0, 1)
	if len(stolen2) != 1 || stolen2[0].Ref.File != 2 {
		// file1 has 6 active readers, file2 has 2 (site0's earlier steals).
		t.Errorf("second steal from file %d, want 2", stolen2[0].Ref.File)
	}
}

func TestStealRoundRobin(t *testing.T) {
	ix := mustIndex(t, 300, 100, 10)
	p, err := NewPool(ix, Placement{0, 1, 1}, Options{Steal: StealRoundRobin})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	p.Assign(0, 10) // drain local
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		js := p.Assign(0, 1)
		if len(js) != 1 {
			t.Fatalf("round %d: no job", i)
		}
		seen[js[0].Ref.File] = true
	}
	if !seen[1] || !seen[2] {
		t.Errorf("round-robin visited files %v, want both 1 and 2", seen)
	}
}

func TestScatterGroups(t *testing.T) {
	ix := mustIndex(t, 200, 100, 10)
	p, err := NewPool(ix, Placement{0, 0}, Options{ScatterGroups: true})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	js := p.Assign(0, 4)
	if len(js) != 4 {
		t.Fatalf("assigned %d", len(js))
	}
	if js[0].Ref.File == js[1].Ref.File {
		t.Errorf("scattered assignment returned same file consecutively: %v %v", js[0].Ref, js[1].Ref)
	}
}

// TestScatterGroupsStridesAcrossAsks: the head asks the pool for one job at
// a time (FairShare.Assign), so the scattered ablation must keep striding
// across files between asks instead of restarting at the site's first file.
func TestScatterGroupsStridesAcrossAsks(t *testing.T) {
	ix := mustIndex(t, 400, 100, 10) // 4 files × 10 chunks
	p, err := NewPool(ix, Placement{0, 0, 0, 0}, Options{ScatterGroups: true})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	for want := 0; want < 8; want++ {
		js := p.Assign(0, 1)
		if len(js) != 1 {
			t.Fatalf("ask %d: assigned %d jobs", want, len(js))
		}
		if js[0].Ref.File != want%4 || js[0].Ref.Seq != want/4 {
			t.Errorf("ask %d = %v, want file %d chunk %d", want, js[0].Ref, want%4, want/4)
		}
	}
}

// TestPoolConservation: every job is assigned exactly once, across any
// interleaving of requesters and request sizes, and completion bookkeeping
// balances.
func TestPoolConservation(t *testing.T) {
	f := func(seed uint32, scatter bool, rr bool) bool {
		ix := mustIndex(t, 240, 60, 6)
		opts := Options{ScatterGroups: scatter}
		if rr {
			opts.Steal = StealRoundRobin
		}
		p, err := NewPool(ix, Placement{0, 1, 0, 1}, opts)
		if err != nil {
			return false
		}
		seen := make(map[int]bool)
		s := seed
		held := map[int][]Job{}
		for p.Remaining() > 0 {
			s = s*1664525 + 1013904223
			site := int(s>>8) % 2
			n := int(s>>16)%7 + 1
			js := p.Assign(site, n)
			if len(js) == 0 && p.Remaining() > 0 {
				return false // pool claims jobs remain but assigns none
			}
			for _, j := range js {
				if seen[j.ID] {
					return false // duplicate assignment
				}
				seen[j.ID] = true
			}
			held[site] = append(held[site], js...)
		}
		if len(seen) != ix.NumChunks() {
			return false // lost jobs
		}
		for site, js := range held {
			for _, j := range js {
				if dup, err := p.Commit(site, j); err != nil || dup {
					return false
				}
			}
		}
		return p.Drained()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCompleteUnknownJob(t *testing.T) {
	ix := mustIndex(t, 100, 100, 10)
	p, _ := NewPool(ix, Placement{0}, Options{})
	if _, err := p.Commit(0, Job{ID: 5}); err == nil {
		t.Error("committing unassigned job succeeded")
	}
	js := p.Assign(0, 1)
	if dup, err := p.Commit(0, js[0]); err != nil || dup {
		t.Fatalf("Commit: dup=%v err=%v", dup, err)
	}
	if dup, err := p.Commit(0, js[0]); err != nil || !dup {
		t.Errorf("double commit: dup=%v err=%v, want a dup", dup, err)
	}
}

func TestAssignEdgeCases(t *testing.T) {
	ix := mustIndex(t, 100, 100, 10)
	p, _ := NewPool(ix, Placement{0}, Options{})
	if got := p.Assign(0, 0); got != nil {
		t.Errorf("Assign(0) = %v, want nil", got)
	}
	if got := p.Assign(0, -3); got != nil {
		t.Errorf("Assign(-3) = %v, want nil", got)
	}
	// Over-asking returns what exists.
	if got := p.Assign(0, 1000); len(got) != 10 {
		t.Errorf("over-ask returned %d, want 10", len(got))
	}
	if got := p.Assign(0, 1); got != nil {
		t.Errorf("empty pool returned %v", got)
	}
	// A site with no local files can still get (steal) everything.
	p2, _ := NewPool(ix, Placement{1}, Options{})
	if got := p2.Assign(0, 1000); len(got) != 10 {
		t.Errorf("pure-remote site got %d, want 10", len(got))
	}
}

func TestDisableStealing(t *testing.T) {
	ix := mustIndex(t, 200, 100, 10) // 2 files × 10 chunks
	p, err := NewPool(ix, Placement{0, 1}, Options{DisableStealing: true})
	if err != nil {
		t.Fatal(err)
	}
	// Site 0 drains its own 10 jobs and then gets nothing, even though
	// site 1's jobs remain.
	if got := p.Assign(0, 100); len(got) != 10 {
		t.Fatalf("site 0 got %d jobs, want 10", len(got))
	}
	if got := p.Assign(0, 1); got != nil {
		t.Errorf("static partition leaked remote jobs to site 0: %v", got)
	}
	if p.Remaining() != 10 {
		t.Errorf("remaining = %d, want 10", p.Remaining())
	}
	if got := p.Assign(1, 100); len(got) != 10 {
		t.Errorf("site 1 got %d jobs, want its 10", len(got))
	}
}

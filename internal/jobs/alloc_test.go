package jobs

import "testing"

// Allocation guards for the head's grant path: deterministic counts, so a
// change that puts an allocation back on it fails here rather than as a
// slower benchmark.

// TestAssignCommitAllocFree: a steady-state grant into a presized slice,
// local and stolen alike, and the commits of what it granted allocate
// nothing.
func TestAssignCommitAllocFree(t *testing.T) {
	ix := mustIndex(t, 4096, 256, 1) // 16 files of 256 one-unit chunks
	p, err := NewPool(ix, SplitByFraction(len(ix.Files), 0.875, 0, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Job, 0, 8)
	site, stolen := 0, 0
	allocs := testing.AllocsPerRun(200, func() {
		buf = p.assign(buf[:0], site, 8)
		for _, j := range buf {
			if j.Site != site {
				stolen++
			}
			if _, err := p.Commit(site, j); err != nil {
				t.Fatal(err)
			}
		}
		site = 1 - site
	})
	if p.Remaining() == 0 || stolen == 0 {
		t.Fatalf("remaining %d, stolen %d: the guard must measure local and stolen grants", p.Remaining(), stolen)
	}
	if allocs != 0 {
		t.Errorf("assign+commit allocates %.2f times per grant of 8, want 0", allocs)
	}
}

// TestFairShareAssignAllocs: one FairShare.Assign across three queries
// allocates at most its returned slice.
func TestFairShareAssignAllocs(t *testing.T) {
	ix := mustIndex(t, 4096, 256, 1)
	f := NewFairShare()
	for q := 0; q < 3; q++ {
		p, err := NewPool(ix, SplitByFraction(len(ix.Files), 0.5, 0, 1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Add(q, p, q+1); err != nil {
			t.Fatal(err)
		}
	}
	site := 0
	allocs := testing.AllocsPerRun(200, func() {
		if got := f.Assign(site, 4, 0); len(got) != 4 {
			t.Fatalf("granted %d jobs, want 4", len(got))
		}
		site = 1 - site
	})
	if allocs > 1 {
		t.Errorf("FairShare.Assign allocates %.2f times per call, want at most 1", allocs)
	}
}

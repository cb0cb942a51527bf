package jobs

import (
	"math"
	"sync"
	"testing"

	"repro/internal/chunk"
)

// fsPool builds a single-site pool with the given number of jobs (one
// chunk per job).
func fsPool(t *testing.T, prefix string, njobs int) *Pool {
	t.Helper()
	ix, err := chunk.Layout(prefix, int64(njobs*5), 4, 5, 5)
	if err != nil {
		t.Fatalf("layout: %v", err)
	}
	placement := make(Placement, len(ix.Files))
	p, err := NewPool(ix, placement, Options{})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	return p
}

func TestFairShareProportions(t *testing.T) {
	f := NewFairShare()
	weights := map[int]int{1: 1, 2: 2, 3: 3}
	for q, w := range weights {
		if err := f.Add(q, fsPool(t, "fs", 400), w); err != nil {
			t.Fatalf("add %d: %v", q, err)
		}
	}

	// Pull grants in uneven batches from two sites (single-site pools
	// still serve site 0; site requests for other sites get stolen work
	// is not relevant here — everything lives on site 0).
	total := 0
	for total < 360 {
		got := f.Assign(0, 7)
		if len(got) == 0 {
			t.Fatalf("assign returned nothing with work remaining (total=%d)", total)
		}
		total += len(got)
	}

	grants := f.Grants()
	wsum := 0
	for _, w := range weights {
		wsum += w
	}
	for q, w := range weights {
		want := float64(total) * float64(w) / float64(wsum)
		got := float64(grants[q])
		if dev := math.Abs(got-want) / want; dev > 0.10 {
			t.Errorf("query %d: %v grants, want ~%.0f (weight %d); deviation %.1f%%",
				q, grants[q], want, w, dev*100)
		}
	}
}

func TestFairShareSkipsDrainedPools(t *testing.T) {
	f := NewFairShare()
	small := fsPool(t, "fs-small", 5)
	big := fsPool(t, "fs-big", 50)
	if err := f.Add(1, small, 3); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(2, big, 1); err != nil {
		t.Fatal(err)
	}

	seen := map[int]int{}
	for {
		got := f.Assign(0, 8)
		if len(got) == 0 {
			break
		}
		for _, tg := range got {
			seen[tg.Query]++
		}
	}
	if seen[1] != 5 {
		t.Errorf("small query granted %d jobs, want 5", seen[1])
	}
	if seen[2] != 50 {
		t.Errorf("big query granted %d jobs, want 50", seen[2])
	}
}

func TestFairShareLateJoinNotOwedBacklog(t *testing.T) {
	f := NewFairShare()
	if err := f.Add(1, fsPool(t, "fs-a", 200), 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		f.Assign(0, 10) // run up query 1's pass
	}
	if err := f.Add(2, fsPool(t, "fs-b", 200), 1); err != nil {
		t.Fatal(err)
	}
	// With equal weights the next window should be near 50/50, not all
	// query 2 paying down a phantom debt.
	before := f.Grants()
	for i := 0; i < 10; i++ {
		f.Assign(0, 10)
	}
	after := f.Grants()
	d1, d2 := after[1]-before[1], after[2]-before[2]
	if d1 < 40 || d2 < 40 {
		t.Errorf("post-join window split %d/%d, want roughly even", d1, d2)
	}
}

func TestFairShareAddValidation(t *testing.T) {
	f := NewFairShare()
	if err := f.Add(1, nil, 1); err == nil {
		t.Error("nil pool accepted")
	}
	p := fsPool(t, "fs-v", 5)
	if err := f.Add(1, p, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(1, p, 1); err == nil {
		t.Error("duplicate query accepted")
	}
	f.Remove(1)
	if err := f.Add(1, p, 1); err != nil {
		t.Errorf("re-add after remove: %v", err)
	}
}

// TestFairShareConcurrentAssign: polls from different sites run Assign at
// once. Each call's grants are its own — the scratch buffers Assign reuses
// never leak into a returned slice — so across all callers every job of
// every query is granted exactly once.
func TestFairShareConcurrentAssign(t *testing.T) {
	const queries, njobs, sites = 3, 600, 4
	f := NewFairShare()
	for q := 0; q < queries; q++ {
		if err := f.Add(q, fsPool(t, "cc", njobs), 1); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][]Tagged, sites)
	var wg sync.WaitGroup
	for site := 0; site < sites; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			for {
				ts := f.Assign(site, 1+site)
				if len(ts) == 0 {
					return
				}
				got[site] = append(got[site], ts...)
			}
		}(site)
	}
	wg.Wait()
	seen := make(map[Tagged]bool)
	for _, ts := range got {
		for _, tg := range ts {
			if seen[tg] {
				t.Fatalf("query %d job %d granted twice", tg.Query, tg.Job.ID)
			}
			seen[tg] = true
		}
	}
	if len(seen) != queries*njobs {
		t.Fatalf("granted %d distinct jobs, want %d", len(seen), queries*njobs)
	}
}

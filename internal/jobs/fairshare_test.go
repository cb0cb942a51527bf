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
		got := f.Assign(0, 7, 0)
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
		got := f.Assign(0, 8, 0)
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
		f.Assign(0, 10, 0) // run up query 1's pass
	}
	if err := f.Add(2, fsPool(t, "fs-b", 200), 1); err != nil {
		t.Fatal(err)
	}
	// With equal weights the next window should be near 50/50, not all
	// query 2 paying down a phantom debt.
	before := f.Grants()
	for i := 0; i < 10; i++ {
		f.Assign(0, 10, 0)
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
				ts := f.Assign(site, 1+site, 0)
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

// sizedPool builds a single-site pool of njobs jobs of chunkBytes each.
func sizedPool(t *testing.T, njobs, chunkBytes int) *Pool {
	t.Helper()
	ix, err := chunk.Layout("sized", int64(njobs*chunkBytes/4), 4, chunkBytes/4, chunkBytes/4)
	if err != nil {
		t.Fatalf("layout: %v", err)
	}
	p, err := NewPool(ix, make(Placement, len(ix.Files)), Options{})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	return p
}

// TestFairShareByteFloor: Assign keeps granting while its batch has fewer
// than n jobs or fewer than bytes bytes, and stops at the first grant that
// meets both. The floor changes only where a batch ends: the grants, laid
// end to end, are the same sequence a bytes-0 scheduler hands out.
func TestFairShareByteFloor(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sizes []int // chunk bytes per query (weight 1+query)
		n     int
		bytes int64
	}{
		{name: "bytes 0 asks n jobs", sizes: []int{20, 20, 20}, n: 4},
		{name: "floor above n jobs", sizes: []int{20, 20, 20}, n: 4, bytes: 200},
		{name: "floor below n jobs", sizes: []int{20, 20, 20}, n: 16, bytes: 40},
		{name: "chunks at the floor", sizes: []int{400, 400}, n: 4, bytes: 400},
		{name: "mixed chunk sizes", sizes: []int{20, 400, 100}, n: 1, bytes: 500},
		{name: "mixed sizes, n binds", sizes: []int{20, 400, 100}, n: 8, bytes: 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const njobs = 60
			floored, plain := NewFairShare(), NewFairShare()
			for q, size := range tc.sizes {
				if err := floored.Add(q, sizedPool(t, njobs, size), 1+q); err != nil {
					t.Fatal(err)
				}
				if err := plain.Add(q, sizedPool(t, njobs, size), 1+q); err != nil {
					t.Fatal(err)
				}
			}
			var all []Tagged
			for {
				batch := floored.Assign(0, tc.n, tc.bytes)
				if len(batch) == 0 {
					break
				}
				all = append(all, batch...)
				var before int64 // bytes granted before the batch's last job
				for _, tg := range batch[:len(batch)-1] {
					before += tg.Job.Ref.Size
				}
				last := batch[len(batch)-1].Job.Ref.Size
				if len(batch) > tc.n && before >= tc.bytes {
					t.Fatalf("batch of %d jobs, %d bytes before its last: past both n=%d and bytes=%d",
						len(batch), before, tc.n, tc.bytes)
				}
				if len(all) < njobs*len(tc.sizes) && (len(batch) < tc.n || before+last < tc.bytes) {
					t.Fatalf("batch of %d jobs, %d bytes ends short of n=%d or bytes=%d with work left",
						len(batch), before+last, tc.n, tc.bytes)
				}
			}
			if len(all) != njobs*len(tc.sizes) {
				t.Fatalf("granted %d jobs, want %d", len(all), njobs*len(tc.sizes))
			}
			for i, tg := range all {
				want := plain.Assign(0, 1, 0)
				if len(want) != 1 || want[0] != tg {
					t.Fatalf("grant %d is query %d job %d, a bytes-0 scheduler grants %v",
						i, tg.Query, tg.Job.ID, want)
				}
			}
		})
	}
}

package jobs

import (
	"math/rand"
	"slices"
	"testing"
)

// takeFromScan is the whole-list filtering scan takeFrom used before it
// walked only the jobs it takes or skips, kept as the reference: the first
// n pending jobs of file fi that site holds no live copy of, the pending
// list left behind, and how many held copies were skipped before the n-th
// take. It does not modify the pool.
func takeFromScan(p *Pool, site, fi, n int) (out, kept []Job, skipped int) {
	for _, j := range p.files[fi].pending {
		if len(out) < n {
			if !p.held[j.ID].has(site) {
				out = append(out, j)
				continue
			}
			skipped++
		}
		kept = append(kept, j)
	}
	return out, kept, skipped
}

// TestTakeFromMatchesScan: under random patterns of held copies — grants,
// commits, and speculation putting a site's own in-flight jobs back in the
// pool — takeFrom picks the same jobs in the same order as the filtering
// scan and leaves the same pending list, appending after whatever the
// caller's slice already holds.
func TestTakeFromMatchesScan(t *testing.T) {
	ix := mustIndex(t, 3*4*16, 16, 1) // 3 sites × 4 files × 16 chunks
	placement := make(Placement, len(ix.Files))
	for i := range placement {
		placement[i] = i % 3
	}
	var paths [2]int // takes that skipped no held copy, and ones that skipped some
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, err := NewPool(ix, placement, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var held [3][]Job
		for step := 0; step < 300; step++ {
			site := rng.Intn(3)
			switch op := rng.Intn(10); {
			case op < 4:
				held[site] = append(held[site], p.Assign(site, 1+rng.Intn(6))...)
			case op < 6 && len(held[site]) > 0:
				k := rng.Intn(len(held[site]))
				if _, err := p.Commit(site, held[site][k]); err != nil {
					t.Fatal(err)
				}
				held[site] = slices.Delete(held[site], k, k+1)
			case op < 7:
				p.SpeculateSite(site)
			default:
				fi, n := rng.Intn(len(p.files)), 1+rng.Intn(8)
				wantOut, wantKept, skipped := takeFromScan(p, site, fi, n)
				paths[min(skipped, 1)]++
				readers, remaining := p.files[fi].readers, p.remaining
				prefix := held[site][:rng.Intn(len(held[site])+1)]
				got := p.takeFrom(slices.Clone(prefix), site, fi, n)
				out := got[len(prefix):]
				if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(out, wantOut) || !slices.Equal(p.files[fi].pending, wantKept) {
					t.Fatalf("seed %d step %d: takeFrom(site %d, file %d, %d) took %v leaving %v; scan takes %v leaving %v",
						seed, step, site, fi, n, out, p.files[fi].pending, wantOut, wantKept)
				}
				if p.files[fi].readers != readers+len(out) || p.remaining != remaining-len(out) {
					t.Fatalf("seed %d step %d: readers/remaining moved by %d/%d for %d jobs",
						seed, step, p.files[fi].readers-readers, remaining-p.remaining, len(out))
				}
				// Put them back, so the pool stays consistent for later steps.
				p.files[fi].readers -= len(out)
				for _, j := range out {
					p.insertPendingLocked(j.ID)
				}
			}
		}
	}
	if paths[0] == 0 || paths[1] == 0 {
		t.Fatalf("takes without/with a skipped held copy: %v; the property is vacuous", paths)
	}
	t.Logf("takes without/with a skipped held copy: %v", paths)
}

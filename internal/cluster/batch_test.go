package cluster

import (
	"math/rand"
	"slices"
	"testing"
)

// TestBatchRulesHoldUnderAnyOrder drives Batch through random retrieval
// and ack orders, with some retrievals failing, for batch sizes 1–16 and
// 1–8 retrieval threads, reusing one Batch throughout. Whatever the order:
// every index starts exactly once; no more than threads retrievals are out
// beyond the settled jobs; a job folds only after its group's ack; only the
// final group is kept; and a group with a failed retrieval settles at once
// and is never kept.
func TestBatchRulesHoldUnderAnyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var b Batch
	for trial := 0; trial < 3000; trial++ {
		n, threads := 1+rng.Intn(16), 1+rng.Intn(8)
		failing := -1
		if rng.Intn(4) == 0 {
			failing = rng.Intn(n)
		}
		b.Grant(n, threads)
		starts := make([]int, n)
		var out []int     // started, not yet retrieved
		var settled []int // jobs whose group settled
		var wire []int    // the group committing
		folded := make([]bool, n)
		kept := false
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("n=%d threads=%d failing=%d: "+format, append([]any{n, threads, failing}, args...)...)
		}
		for step := 0; !b.Done(); step++ {
			if step > 100*n {
				fail("no progress after %d steps", step)
			}
			for i, ok := b.Start(); ok; i, ok = b.Start() {
				starts[i]++
				out = append(out, i)
			}
			started := 0
			for _, c := range starts {
				started += c
			}
			if started-len(settled) > threads {
				fail("%d jobs started beyond the %d settled, threads %d", started-len(settled), len(settled), threads)
			}
			switch {
			case len(out) > 0 && (len(wire) == 0 || rng.Intn(2) == 0):
				k := rng.Intn(len(out))
				i := out[k]
				out = slices.Delete(out, k, k+1)
				b.Retrieved(i, i != failing)
			case len(wire) > 0:
				for _, i := range b.Acked() {
					if !slices.Contains(wire, i) {
						fail("ack folds job %d outside the committing group %v", i, wire)
					}
					folded[i] = true
				}
				settled = append(settled, wire...)
				wire = nil
			}
			if rng.Intn(3) == 0 {
				continue // form the group later: more may arrive meanwhile
			}
			g, act, ok := b.Group()
			if !ok {
				continue
			}
			if !slices.IsSorted(g) {
				fail("group %v not sorted", g)
			}
			hasFailed := slices.Contains(g, failing)
			switch act {
			case Fail:
				if !hasFailed {
					fail("group %v failed with no failed retrieval", g)
				}
				settled = append(settled, g...)
			case Keep:
				if hasFailed {
					fail("group %v with a failed retrieval kept", g)
				}
				if len(settled)+len(g) != n || len(out) > 0 {
					fail("kept group %v is not the last: %d settled, %d out", g, len(settled), len(out))
				}
				kept = true
				settled = append(settled, g...)
			case Commit:
				if hasFailed {
					fail("group %v with a failed retrieval committed", g)
				}
				if len(settled)+len(g) == n {
					fail("last group %v committed instead of kept", g)
				}
				wire = append([]int(nil), g...)
			}
		}
		for i, c := range starts {
			if c != 1 {
				fail("index %d started %d times", i, c)
			}
		}
		if len(settled) != n || len(out) > 0 || len(wire) > 0 {
			fail("done with %d settled, %d out, %d on the wire", len(settled), len(out), len(wire))
		}
		if failing < 0 && !kept {
			fail("batch ended without keeping its last group")
		}
		for i, f := range folded {
			if f && i == failing {
				fail("job %d folded despite its failed retrieval", i)
			}
		}
	}
}

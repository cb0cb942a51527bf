package cluster

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/chunk"
	"repro/internal/jobs"
)

// batchG is the unit-group budget the Batch tests size chunks against: a
// batch may have threads × batchG bytes out beyond its settled jobs.
const batchG = 64

// batchSizes are the chunk-size mixes TestBatchRulesHoldUnderAnyOrder draws
// from. atLeastG marks a mix whose every chunk is at least batchG, where the
// byte window adds nothing and at most threads retrievals are ever out.
var batchSizes = []struct {
	name     string
	atLeastG bool
	size     func(rng *rand.Rand) int64
}{
	{"chunks of G", true, func(*rand.Rand) int64 { return batchG }},
	{"chunks of G to 4G", true, func(rng *rand.Rand) int64 { return batchG + rng.Int63n(3*batchG+1) }},
	{"tiny chunks", false, func(rng *rand.Rand) int64 { return 1 + rng.Int63n(4) }},
	{"mixed chunks", false, func(rng *rand.Rand) int64 {
		return []int64{1, batchG / 8, batchG / 2, batchG, 3 * batchG}[rng.Intn(5)]
	}},
	{"empty chunks among small", false, func(rng *rand.Rand) int64 { return []int64{0, 8}[rng.Intn(2)] }},
}

// TestBatchRulesHoldUnderAnyOrder drives Batch through random retrieval
// and ack orders, with some retrievals failing, for batch sizes 1–16,
// 1–8 retrieval threads and each mix of chunk sizes, reusing one Batch
// throughout. Whatever the order: every index starts exactly once; Start
// refuses only once every index is out, or while threads retrievals are out
// beyond the settled jobs and the next chunk would take their bytes past
// threads × G; no more retrievals are out than Depth, and with every chunk
// at least G no more than threads; a job folds only after its group's ack;
// only the final group is kept; and a group with a failed retrieval settles
// at once and is never kept.
func TestBatchRulesHoldUnderAnyOrder(t *testing.T) {
	for _, mix := range batchSizes {
		t.Run(mix.name, func(t *testing.T) { batchRules(t, mix.size, mix.atLeastG) })
	}
}

func batchRules(t *testing.T, size func(*rand.Rand) int64, atLeastG bool) {
	rng := rand.New(rand.NewSource(1))
	var b Batch
	for trial := 0; trial < 3000; trial++ {
		n, threads := 1+rng.Intn(16), 1+rng.Intn(8)
		window := int64(threads) * batchG
		js := make([]jobs.Job, n)
		for i := range js {
			js[i] = jobs.Job{ID: i, Ref: chunk.Ref{Seq: i, Size: size(rng)}}
		}
		failing := -1
		if rng.Intn(4) == 0 {
			failing = rng.Intn(n)
		}
		b.Grant(js, threads, window)
		depth := b.Depth()
		starts := make([]int, n)
		var out []int     // started, not yet retrieved
		var settled []int // jobs whose group settled
		var wire []int    // the group committing
		folded := make([]bool, n)
		kept := false
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("n=%d threads=%d failing=%d sizes=%v: "+format,
				append([]any{n, threads, failing, sizesOf(js)}, args...)...)
		}
		for step := 0; !b.Done(); step++ {
			if step > 100*n {
				fail("no progress after %d steps", step)
			}
			for i, ok := b.Start(); ok; i, ok = b.Start() {
				starts[i]++
				out = append(out, i)
			}
			started, bytes := 0, int64(0) // out beyond the settled jobs
			for i, c := range starts {
				if started += c; c > 0 && !slices.Contains(settled, i) {
					bytes += js[i].Ref.Size
				}
			}
			ahead := started - len(settled)
			if ahead > depth {
				fail("%d jobs out beyond the settled, Depth %d", ahead, depth)
			}
			if ahead > threads && bytes > window {
				fail("%d jobs and %d bytes out beyond the settled, threads %d, window %d", ahead, bytes, threads, window)
			}
			if atLeastG && ahead > threads {
				fail("%d jobs out beyond the settled with chunks of at least G, threads %d", ahead, threads)
			}
			if started < n && (ahead < threads || bytes+js[started].Ref.Size <= window) {
				fail("Start refused job %d with %d jobs and %d bytes out, threads %d, window %d",
					started, ahead, bytes, threads, window)
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

func sizesOf(js []jobs.Job) []int64 {
	out := make([]int64, len(js))
	for i, j := range js {
		out[i] = j.Ref.Size
	}
	return out
}

// TestBatchDepth: Depth is threads for chunks of at least G, the number of
// the batch's smallest chunks the window holds when that is more, and never
// more than the batch.
func TestBatchDepth(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sizes   []int64
		threads int
		want    int
	}{
		{"chunks of G: threads", []int64{64, 64, 64, 64}, 2, 2},
		{"chunks of G or more: threads", []int64{256, 64, 1024}, 2, 2},
		{"tiny chunks: the whole batch", fourBytes(10), 2, 10},
		{"tiny chunks: the window", fourBytes(64), 2, 32},
		{"one small chunk among large: the batch", []int64{1024, 16, 1024, 1024, 1024}, 2, 5},
		{"mixed chunks: the smallest fill the window", []int64{32, 64, 32, 64, 32, 64}, 1, 2},
		{"an empty chunk: the batch", []int64{0, 8, 8}, 2, 3},
		{"one job", []int64{512}, 4, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			js := make([]jobs.Job, len(tc.sizes))
			for i, size := range tc.sizes {
				js[i].Ref.Size = size
			}
			var b Batch
			b.Grant(js, tc.threads, int64(tc.threads)*batchG)
			if got := b.Depth(); got != tc.want {
				t.Errorf("Depth = %d, want %d", got, tc.want)
			}
		})
	}
}

// fourBytes returns n chunk sizes of 4 bytes.
func fourBytes(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = 4
	}
	return out
}

package cluster

import (
	"math"
	"slices"

	"repro/internal/jobs"
)

// Batch is the agent's rules for working one grant batch, apart from any
// clock: RunAgent drives it with retrieval lanes on the wall clock, calling
// a method where each event happens and acting on what it returns, and a
// driver on a virtual clock can do the same:
//
//   - Start hands out the next job index to retrieve while fewer than
//     threads retrievals are out beyond the jobs already settled, or while
//     the bytes out beyond them stay within the batch's window;
//   - Retrieved records the end of one retrieval;
//   - Group forms the next group — every retrieval that ended while the
//     previous commit was on the wire — sorted by index, and says what to do
//     with it: commit it now, keep it for the next poll (the batch's last
//     group), or settle it at once because a retrieval in it failed;
//   - Acked records the answer to the group's commit; the driver folds its
//     acknowledged jobs, in group order, before it forms the next group.
//
// The agent polls only once Done: every job of the batch is settled or
// kept. A Batch is reused from batch to batch and allocates nothing once its
// slices have grown to the largest batch. It is not safe for concurrent use.
type Batch struct {
	js      []jobs.Job // the batch, in grant order
	threads int
	window  int64 // bytes that may be out beyond the settled jobs
	n       int   // jobs in the batch
	started int   // indices handed out, in order
	settled int   // jobs in groups answered, failed or kept
	out     int64 // bytes of the started jobs not yet settled
	arrived []int // retrieved since the last group, in arrival order
	failed  bool  // a retrieval in arrived failed
	group   []int // the group formed last, sorted
	wire    bool  // group is committing: formed and not yet acked
}

// Action is what a driver does with a group Batch formed.
type Action int

const (
	// Commit sends the group to the head now; Acked records the answer.
	Commit Action = iota
	// Keep holds the batch's last group for the next poll to commit.
	Keep
	// Fail settles the group at once, folding nothing: a retrieval in it
	// failed.
	Fail
)

// Grant starts the batch js worked by threads retrieval lanes, with up to
// window bytes of chunks out beyond the settled jobs. For chunks of at
// least window/threads bytes the window adds nothing to threads; smaller
// chunks run further ahead, so a group commit covers more of the batch.
func (b *Batch) Grant(js []jobs.Job, threads int, window int64) {
	*b = Batch{js: js, threads: threads, window: window, n: len(js),
		arrived: b.arrived[:0], group: b.group[:0]}
}

// Depth bounds the retrievals Start can have out at once: threads, or as
// many of the batch's smallest chunks as the window holds, if more. A
// driver sizes its retrieval queues to it.
func (b *Batch) Depth() int {
	smallest := int64(math.MaxInt64)
	for _, j := range b.js {
		smallest = min(smallest, j.Ref.Size)
	}
	if smallest <= 0 {
		return b.n
	}
	return int(min(int64(b.n), max(int64(b.threads), b.window/smallest)))
}

// Start returns the next job index to retrieve, or false once every index
// is out, or while threads retrievals beyond the settled jobs are out and
// the next chunk would take the bytes out past the window.
func (b *Batch) Start() (int, bool) {
	i := b.started
	if i == b.n {
		return 0, false
	}
	size := b.js[i].Ref.Size
	if i-b.settled >= b.threads && b.out+size > b.window {
		return 0, false
	}
	b.started++
	b.out += size
	return i, true
}

// settle counts the group formed last as settled.
func (b *Batch) settle() {
	b.settled += len(b.group)
	for _, i := range b.group {
		b.out -= b.js[i].Ref.Size
	}
}

// Retrieved records that the retrieval of index i ended, failed unless ok.
func (b *Batch) Retrieved(i int, ok bool) {
	b.arrived = append(b.arrived, i)
	b.failed = b.failed || !ok
}

// Group forms the next group from every retrieval that ended since the last
// one, sorted, and returns it with what to do with it. It returns false
// while a commit is on the wire or nothing has arrived. The slice is good
// until the next Group.
func (b *Batch) Group() ([]int, Action, bool) {
	if b.wire || len(b.arrived) == 0 {
		return nil, Commit, false
	}
	b.group = append(b.group[:0], b.arrived...)
	b.arrived = b.arrived[:0]
	slices.Sort(b.group)
	switch {
	case b.failed:
		b.failed = false
		b.settle()
		return b.group, Fail, true
	case b.settled+len(b.group) == b.n:
		b.settle()
		return b.group, Keep, true
	}
	b.wire = true
	return b.group, Commit, true
}

// Acked records the head's answer to the commit of the group Group returned
// last and returns that group, whose acknowledged jobs the driver folds.
func (b *Batch) Acked() []int {
	b.wire = false
	b.settle()
	return b.group
}

// Done reports whether every job of the batch is settled or kept.
func (b *Batch) Done() bool { return b.settled == b.n }

package head

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/protocol"
)

// ride is a poll for site that carries commits and would park for 20 ms.
func ride(site int, commits ...protocol.JobsDone) protocol.PollRequest {
	return protocol.PollRequest{Site: site, N: 4, ParkNS: int64(20 * time.Millisecond), Commits: commits}
}

// done is one query's commit of js from site.
func done(site, query int, js []jobs.Job) protocol.JobsDone {
	return protocol.JobsDone{Site: site, Query: query, Jobs: js}
}

// commitPoll is a master's mid-batch commit: a poll for site that carries
// commits and asks for nothing.
func commitPoll(site int, commits ...protocol.JobsDone) protocol.PollRequest {
	return protocol.PollRequest{Site: site, Commits: commits}
}

// poll is a bare poll for n jobs at site.
func poll(h *Head, site, n int) (protocol.PollReply, error) {
	return h.PollFrom(protocol.PollRequest{Site: site, N: n})
}

// commitJobs commits js for query from site as a master commits a
// mid-batch group — a poll that asks for nothing — and returns the ack's
// duplicates and its error.
func commitJobs(h *Head, query, site int, js []jobs.Job) ([]int, error) {
	return CommitAck(h.PollFrom(commitPoll(site, done(site, query, js))))
}

// TestPollCommitDrainGetsDoneInSameReply: the commits a poll carries are
// applied before its grants are evaluated, so the commit that drains a
// query's pool gets that query's Done in the very reply that acks it, next
// to the grants of a query that still has work.
func TestPollCommitDrainGetsDoneInSameReply(t *testing.T) {
	h, _ := parkHead(t, 1, Config{})
	ix := parkIndex(t)
	qa := admitSumQuery(t, h, ix, jobs.Placement{0, 0}, 1)
	var held []jobs.Job
	for len(held) < ix.NumChunks() { // every job of qa, before qb exists
		for _, qj := range takeAll(t, h, 0) {
			held = append(held, qj.Jobs...)
		}
	}
	qb := admitSumQuery(t, h, ix, jobs.Placement{0, 0}, 1)
	rep, err := h.PollFrom(ride(0, done(0, qa.ID(), held)))
	if err != nil {
		t.Fatal(err)
	}
	if want := []protocol.JobsDoneAck{{}}; !reflect.DeepEqual(rep.Acks, want) {
		t.Errorf("acks = %#v, want %#v", rep.Acks, want)
	}
	if !reflect.DeepEqual(rep.Done, []int{qa.ID()}) {
		t.Errorf("Done = %v, want [%d]: the commit drained the pool", rep.Done, qa.ID())
	}
	if len(rep.Queries) != 1 || rep.Queries[0].Query != qb.ID() || len(rep.Queries[0].Jobs) != 4 {
		t.Errorf("grants = %#v, want 4 jobs of query %d", rep.Queries, qb.ID())
	}
}

// TestPollCommitAcksInOrder: a poll carrying several commits gets one ack
// per commit, in commit order, each listing that commit's duplicates.
func TestPollCommitAcksInOrder(t *testing.T) {
	h, _ := parkHead(t, 1, Config{})
	ix := parkIndex(t)
	qa := admitSumQuery(t, h, ix, jobs.Placement{0, 0}, 1)
	qb := admitSumQuery(t, h, ix, jobs.Placement{0, 0}, 1)
	byQuery := map[int][]jobs.Job{}
	for len(byQuery[qa.ID()])+len(byQuery[qb.ID()]) < 2*ix.NumChunks() {
		for _, qj := range takeAll(t, h, 0) {
			byQuery[qj.Query] = append(byQuery[qj.Query], qj.Jobs...)
		}
	}
	a, b := byQuery[qa.ID()], byQuery[qb.ID()]
	// b[0] is already in: the poll's second commit of it is a duplicate.
	commitAll(t, h, 0, []protocol.QueryJobs{{Query: qb.ID(), Jobs: b[:1]}})
	rep, err := h.PollFrom(ride(0, done(0, qb.ID(), b[:3]), done(0, qa.ID(), a[:2]), done(0, qa.ID(), a[:1])))
	if err != nil {
		t.Fatal(err)
	}
	want := []protocol.JobsDoneAck{{Dup: []int{b[0].ID}}, {}, {Dup: []int{a[0].ID}}}
	if !reflect.DeepEqual(rep.Acks, want) {
		t.Errorf("acks = %#v, want %#v", rep.Acks, want)
	}
}

// TestPollCommitGoneQueries: a commit for a canceled query, or for one the
// head has finished and retired, is acked with every ID a duplicate; a
// commit for a query the head never admitted gets an ack coded
// CodeUnknownQuery. None of them fails the poll or its other commits.
func TestPollCommitGoneQueries(t *testing.T) {
	h, _ := parkHead(t, 1, Config{})
	ix := parkIndex(t)
	canceled := admitSumQuery(t, h, ix, jobs.Placement{0, 0}, 1)
	var held []jobs.Job
	for len(held) < ix.NumChunks() {
		for _, qj := range takeAll(t, h, 0) {
			held = append(held, qj.Jobs...)
		}
	}
	canceled.Cancel()
	retired := admitSumQuery(t, h, ix, jobs.Placement{0, 0}, 1)
	var finished []jobs.Job
	for len(finished) < ix.NumChunks() {
		qjs := takeAll(t, h, 0)
		commitAll(t, h, 0, qjs)
		for _, qj := range qjs {
			finished = append(finished, qj.Jobs...)
		}
	}
	if err := h.SubmitQueryResult(protocol.ReductionResult{Site: 0, Query: retired.ID(), Object: encodeSum(1)}); err != nil {
		t.Fatal(err)
	}
	<-retired.Done()
	ids := func(js []jobs.Job) []int {
		out := make([]int, len(js))
		for i, j := range js {
			out[i] = j.ID
		}
		return out
	}
	rep, err := h.PollFrom(ride(0, done(0, canceled.ID(), held), done(0, retired.ID(), finished[:2]),
		done(0, 999, finished[:1])))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Acks) != 3 {
		t.Fatalf("%d acks for 3 commits", len(rep.Acks))
	}
	if a := rep.Acks[0]; a.Err != "" || !reflect.DeepEqual(a.Dup, ids(held)) {
		t.Errorf("canceled query's ack = %#v, want every ID %v a duplicate", a, ids(held))
	}
	if a := rep.Acks[1]; a.Err != "" || !reflect.DeepEqual(a.Dup, ids(finished[:2])) {
		t.Errorf("retired query's ack = %#v, want every ID %v a duplicate", a, ids(finished[:2]))
	}
	if a := rep.Acks[2]; a.Code != protocol.CodeUnknownQuery || a.Err == "" || len(a.Dup) != 0 {
		t.Errorf("unknown query's ack = %#v, want an error coded CodeUnknownQuery", a)
	}
}

// TestPollCommitFencedRefusedWhole: a fenced site's poll is refused with
// the fence, and none of the commits it carries is applied — the survivor's
// commits of the reissued jobs are all first commits.
func TestPollCommitFencedRefusedWhole(t *testing.T) {
	h, _ := parkHead(t, 2, Config{
		Tuning: config.Tuning{LeaseTTL: time.Hour},
		Fault:  FaultConfig{Store: fault.NewMemStore()},
	})
	ix := parkIndex(t)
	q := admitSumQuery(t, h, ix, jobs.Placement{0, 0}, 1)
	rep, err := poll(h, 0, 4)
	if err != nil || len(rep.Queries) != 1 {
		t.Fatalf("grant: %#v, %v", rep, err)
	}
	held := rep.Queries[0].Jobs
	h.FailSite(0)
	if rep, err := h.PollFrom(ride(0, done(0, q.ID(), held))); !fault.IsFenced(err) {
		t.Fatalf("fenced poll: %#v, %v; want the fence", rep, err)
	}
	for n := 0; n < ix.NumChunks(); {
		qjs := takeAll(t, h, 1)
		if len(qjs) == 0 {
			t.Fatalf("survivor granted %d of %d jobs", n, ix.NumChunks())
		}
		commitAll(t, h, 1, qjs) // fails on any duplicate
		for _, qj := range qjs {
			n += len(qj.Jobs)
		}
	}
}

// TestPollCommitNeverHeld: a poll that carries commits is answered at once
// even when its answer is otherwise idle and it asks to park.
func TestPollCommitNeverHeld(t *testing.T) {
	h, o := parkHead(t, 1, Config{})
	ix := parkIndex(t)
	q := admitSumQuery(t, h, ix, jobs.Placement{0, 0}, 1)
	rep, err := poll(h, 0, 2)
	if err != nil || len(rep.Queries) != 1 {
		t.Fatalf("grant: %#v, %v", rep, err)
	}
	held := rep.Queries[0].Jobs
	takeAll(t, h, 0) // the rest stays outstanding: no grant, no Done
	rep, err = h.PollFrom(ride(0, done(0, q.ID(), held)))
	if err != nil {
		t.Fatal(err)
	}
	if !idleReply(rep) || len(rep.Acks) != 1 {
		t.Errorf("reply = %#v, want no grants or notices and one ack", rep)
	}
	if n := parkedTotal(o, 0); n != 0 {
		t.Errorf("%d polls held, want 0: a poll carrying commits is never held", n)
	}
}

// TestCommitPollKeepsNotices: a poll that carries a commit and asks for
// nothing is answered with the ack alone. Query A is canceled while site 0
// holds jobs of query B: the commit poll of one B group carries no Dropped
// notice — a master that reads only the acks would lose it and keep A's
// engine forever — and the site's next poll that asks for work brings
// Dropped=[A].
func TestCommitPollKeepsNotices(t *testing.T) {
	h, _ := parkHead(t, 1, Config{})
	ix := parkIndex(t)
	qa := admitSumQuery(t, h, ix, jobs.Placement{0, 0}, 1)
	qb := admitSumQuery(t, h, ix, jobs.Placement{0, 0}, 1)
	var held []jobs.Job
	for _, qj := range takeAll(t, h, 0) {
		if qj.Query == qb.ID() {
			held = qj.Jobs
		}
	}
	if len(held) == 0 {
		t.Fatal("site 0 holds no job of query B")
	}
	qa.Cancel()
	rep, err := h.PollFrom(commitPoll(0, done(0, qb.ID(), held[:1])))
	if err != nil {
		t.Fatal(err)
	}
	if want := (protocol.PollReply{Acks: []protocol.JobsDoneAck{{}}}); !reflect.DeepEqual(rep, want) {
		t.Errorf("commit poll reply = %#v, want the one ack alone", rep)
	}
	rep, err = poll(h, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Dropped, []int{qa.ID()}) {
		t.Errorf("next poll's Dropped = %v, want [%d]", rep.Dropped, qa.ID())
	}
}

// TestCommitPollFromDrainingSite: a draining site's commit poll is answered
// with its ack alone — no Dropped notice and no Drain — and does not depart
// the site, though it leaves the site nothing held and nothing owed; the
// site's next poll that asks for work carries both and departs it.
func TestCommitPollFromDrainingSite(t *testing.T) {
	h, q := drainHead(t)
	rep, err := poll(h, 1000, 3)
	if err != nil || len(rep.Queries) != 1 {
		t.Fatalf("grant: %#v, %v", rep, err)
	}
	held := rep.Queries[0].Jobs
	left, err := h.DrainSite(1000)
	if err != nil {
		t.Fatal(err)
	}
	q.Cancel()
	rep, err = h.PollFrom(commitPoll(1000, done(1000, q.ID(), held)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Acks) != 1 || len(rep.Acks[0].Dup) != len(held) || !idleReply(rep) {
		t.Errorf("draining site's commit poll = %#v, want one ack, every job a duplicate, alone", rep)
	}
	select {
	case <-left:
		t.Fatal("a commit poll departed the draining site")
	default:
	}
	if !slices.Contains(h.Sites(), 1000) {
		t.Errorf("Sites() = %v after the commit poll, want 1000 still in it", h.Sites())
	}
	rep, err = poll(h, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drain || !reflect.DeepEqual(rep.Dropped, []int{q.ID()}) {
		t.Errorf("next poll = %#v, want Dropped=[%d] and Drain", rep, q.ID())
	}
	select {
	case <-left:
	default:
		t.Error("the poll that carried Drain did not depart the site")
	}
}

// TestCommitPollAttributedToPollingSite: a commit is the polling site's,
// whatever its own Site field says. Site 1 commits every job it holds on a
// poll whose commit names site 0: the jobs leave site 1's hands, the pool
// drains, and Done is due at site 1, which folded them, not at site 0.
func TestCommitPollAttributedToPollingSite(t *testing.T) {
	h, _ := parkHead(t, 2, Config{})
	ix := parkIndex(t)
	q := admitSumQuery(t, h, ix, jobs.Placement{0, 0}, 1)
	var held []jobs.Job
	for len(held) < ix.NumChunks() {
		for _, qj := range takeAll(t, h, 1) {
			held = append(held, qj.Jobs...)
		}
	}
	if _, err := h.PollFrom(commitPoll(1, done(0, q.ID(), held))); err != nil {
		t.Fatal(err)
	}
	for site, want := range map[int][]int{1: {q.ID()}, 0: nil} {
		rep, err := poll(h, site, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Done, want) {
			t.Errorf("site %d: Done = %v, want %v", site, rep.Done, want)
		}
	}
}

// TestCommitPollRenewsLeaseOnce: a poll renews its site's lease once
// however many commits it carries — a commit poll once, as a commit frame
// of its own did, not once for the poll and again per commit.
func TestCommitPollRenewsLeaseOnce(t *testing.T) {
	h, o := parkHead(t, 1, Config{
		Tuning: config.Tuning{LeaseTTL: time.Hour},
		Fault:  FaultConfig{Store: fault.NewMemStore()},
	})
	ix := parkIndex(t)
	q := admitSumQuery(t, h, ix, jobs.Placement{0, 0}, 1)
	held := takeAll(t, h, 0)[0].Jobs
	beats := o.Metrics().Counter("head_heartbeats_total")
	before := beats.Value()
	if _, err := commitJobs(h, q.ID(), 0, held[:2]); err != nil {
		t.Fatal(err)
	}
	if n := beats.Value() - before; n != 1 {
		t.Errorf("a commit poll renewed the lease %d times, want 1", n)
	}
	before = beats.Value()
	if _, err := h.PollFrom(ride(0, done(0, q.ID(), held[2:4]), done(0, q.ID(), held[4:]))); err != nil {
		t.Fatal(err)
	}
	if n := beats.Value() - before; n != 1 {
		t.Errorf("a poll carrying two commits renewed the lease %d times, want 1", n)
	}
}

// BenchmarkPollCommit drains a pool from one site, committing each grant
// on the next poll ("ride") or with a commit poll of its own, which asks
// for nothing and reuses its ack list, before that poll ("mid-batch"), and
// reports ns, allocs and
// polls per committed job (a commit poll counts as a poll).
// The first two cases drain 1024 4-byte jobs in 4-job grants; "ride-4KiB"
// drains 8192 4 KiB jobs asking, as an agent with up to 4 cores does, for
// 4 jobs and a byte floor of 4 unit groups (1 MiB) per poll.
func BenchmarkPollCommit(b *testing.B) {
	for _, tc := range []struct {
		name       string
		ride       bool
		jobs       int
		chunkBytes int
		floor      int64
	}{
		{name: "ride", ride: true, jobs: 1024, chunkBytes: 4},
		{name: "mid-batch", jobs: 1024, chunkBytes: 4},
		{name: "ride-4KiB", ride: true, jobs: 8192, chunkBytes: 4 << 10, floor: 4 * core.DefaultGroupBytes},
	} {
		ix, err := chunk.Layout("ride", int64(tc.jobs*tc.chunkBytes/4), 4, tc.jobs*tc.chunkBytes/16, tc.chunkBytes/4)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			var committed, mallocs, polls uint64
			var elapsed time.Duration
			var ms runtime.MemStats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h, err := New(Config{ExpectClusters: 1, Logf: func(string, ...any) {}})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := h.RegisterSite(protocol.Hello{Site: 0, Cluster: "c0", Proto: protocol.ProtoMulti}); err != nil {
					b.Fatal(err)
				}
				pool, err := jobs.NewPool(ix, jobs.Placement{0, 0, 0, 0}, jobs.Options{})
				if err != nil {
					b.Fatal(err)
				}
				spec := protocol.JobSpec{App: "sum", UnitSize: 4}
				if err := EncodeIndexSpec(&spec, ix); err != nil {
					b.Fatal(err)
				}
				q, err := h.Admit(QueryConfig{Pool: pool, Reducer: sumReducer{}, Spec: spec})
				if err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&ms)
				before, start := ms.Mallocs, time.Now()
				b.StartTimer()
				var last []jobs.Job
				// Reused, as both agents reuse a commit poll's lists.
				commits, acks := make([]protocol.JobsDone, 1), make([]protocol.JobsDoneAck, 0, 1)
				for {
					req := protocol.PollRequest{Site: 0, N: 4, Bytes: tc.floor}
					if len(last) > 0 {
						commits[0] = done(0, q.ID(), last)
						if tc.ride {
							req.Commits = commits
						} else if rep, err := h.PollInto(commitPoll(0, commits...), acks); err != nil {
							b.Fatal(err)
						} else {
							acks = rep.Acks[:0]
							polls++
						}
						committed += uint64(len(last))
					}
					rep, err := h.PollFrom(req)
					if err != nil {
						b.Fatal(err)
					}
					polls++
					if len(rep.Queries) == 0 {
						break
					}
					last = rep.Queries[0].Jobs
				}
				b.StopTimer()
				elapsed += time.Since(start)
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - before
				h.Shutdown()
			}
			b.ReportMetric(float64(elapsed.Nanoseconds())/float64(committed), "ns/job")
			b.ReportMetric(float64(mallocs)/float64(committed), "allocs/job")
			b.ReportMetric(float64(polls)/float64(committed), "polls/job")
		})
	}
}

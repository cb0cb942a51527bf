package head

import (
	"context"
	"errors"
	"net"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// forever is a ParkNS no test outlives: a held poll that returns did so
// because an event woke it, never because the hold ran out.
const forever = int64(time.Hour)

// parkHead builds a pure multi-query head with metrics on and sites
// 0..sites-1 registered.
func parkHead(t *testing.T, sites int, cfg Config) (*Head, *obs.Obs) {
	t.Helper()
	o := obs.New(nil)
	cfg.ExpectClusters, cfg.Logf, cfg.Obs = sites, t.Logf, o
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Shutdown)
	for s := 0; s < sites; s++ {
		if _, err := h.RegisterSite(protocol.Hello{Site: s, Cluster: "c" + strconv.Itoa(s), Proto: protocol.ProtoMulti}); err != nil {
			t.Fatal(err)
		}
	}
	return h, o
}

// parkIndex lays out 2 files × 4 chunks = 8 jobs.
func parkIndex(t *testing.T) *chunk.Index {
	t.Helper()
	ix, err := chunk.Layout("park", 80, 4, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

type pollResult struct {
	rep protocol.PollReply
	err error
}

// parkPoll issues a parking poll for site on its own goroutine.
func parkPoll(h *Head, site int, parkNS int64) <-chan pollResult {
	ch := make(chan pollResult, 1)
	go func() {
		rep, err := h.PollFrom(protocol.PollRequest{Site: site, N: 4, ParkNS: parkNS})
		ch <- pollResult{rep, err}
	}()
	return ch
}

func parkedTotal(o *obs.Obs, site int) int64 {
	return o.Metrics().Counter("head_polls_parked_total", "site", strconv.Itoa(site)).Value()
}

// awaitParked returns once site's n-th held poll has begun its hold — by
// then it has captured the wake channel, so any later event must reach it.
func awaitParked(t *testing.T, o *obs.Obs, site int, n int64) {
	t.Helper()
	waitFor(t, "site "+strconv.Itoa(site)+" to park", func() bool { return parkedTotal(o, site) >= n })
}

// awaitReply receives a held poll's answer; a hold that outlives the event
// meant to end it is a lost wake-up.
func awaitReply(t *testing.T, ch <-chan pollResult) pollResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("held poll did not return after its event")
		return pollResult{}
	}
}

// takeAll grants every remaining job to site in one poll.
func takeAll(t *testing.T, h *Head, site int) []protocol.QueryJobs {
	t.Helper()
	rep, err := h.Poll(site, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Queries
}

func commitAll(t *testing.T, h *Head, site int, qjs []protocol.QueryJobs) {
	t.Helper()
	for _, qj := range qjs {
		if dups, err := h.CompleteQueryJobs(qj.Query, site, qj.Jobs); err != nil || len(dups) != 0 {
			t.Fatalf("commit query %d at site %d: dups=%v err=%v", qj.Query, site, dups, err)
		}
	}
}

// TestParkedPollWakesOnEvent: a poll held with an hour's park comes back as
// soon as the event that changes its answer happens, carrying that event.
func TestParkedPollWakesOnEvent(t *testing.T) {
	ix := parkIndex(t)
	both := jobs.Placement{0, 1}

	t.Run("admit", func(t *testing.T) {
		h, o := parkHead(t, 2, Config{})
		ch := parkPoll(h, 0, forever)
		awaitParked(t, o, 0, 1)
		q := admitSumQuery(t, h, ix, both, 1)
		r := awaitReply(t, ch)
		if r.err != nil || len(r.rep.Queries) != 1 || r.rep.Queries[0].Query != q.ID() {
			t.Fatalf("reply after Admit = %+v, %v; want grants for query %d", r.rep, r.err, q.ID())
		}
	})

	t.Run("pool drained by another site", func(t *testing.T) {
		h, o := parkHead(t, 2, Config{})
		q := admitSumQuery(t, h, ix, both, 1)
		first, err := h.Poll(0, 2)
		if err != nil {
			t.Fatal(err)
		}
		commitAll(t, h, 0, first.Queries) // site 0 contributed: it will owe a result
		rest := takeAll(t, h, 1)
		ch := parkPoll(h, 0, forever) // nothing left to grant, site 1 still working
		awaitParked(t, o, 0, 1)
		commitAll(t, h, 1, rest)
		r := awaitReply(t, ch)
		if r.err != nil || !reflect.DeepEqual(r.rep.Done, []int{q.ID()}) {
			t.Fatalf("reply after the draining commit = %+v, %v; want Done=[%d]", r.rep, r.err, q.ID())
		}
	})

	t.Run("cancel", func(t *testing.T) {
		h, o := parkHead(t, 2, Config{})
		q := admitSumQuery(t, h, ix, both, 1)
		takeAll(t, h, 1)
		ch := parkPoll(h, 0, forever)
		awaitParked(t, o, 0, 1)
		q.Cancel()
		r := awaitReply(t, ch)
		if r.err != nil || !reflect.DeepEqual(r.rep.Dropped, []int{q.ID()}) {
			t.Fatalf("reply after Cancel = %+v, %v; want Dropped=[%d]", r.rep, r.err, q.ID())
		}
	})

	t.Run("shutdown", func(t *testing.T) {
		h, o := parkHead(t, 1, Config{})
		ch := parkPoll(h, 0, forever)
		awaitParked(t, o, 0, 1)
		h.Shutdown()
		if r := awaitReply(t, ch); r.err != nil || !r.rep.Shutdown {
			t.Fatalf("reply after Shutdown = %+v, %v; want Shutdown set", r.rep, r.err)
		}
	})

	t.Run("drain", func(t *testing.T) {
		h, o := parkHead(t, 2, Config{})
		ch := parkPoll(h, 1, forever)
		awaitParked(t, o, 1, 1)
		gone, err := h.DrainSite(1)
		if err != nil {
			t.Fatal(err)
		}
		if r := awaitReply(t, ch); r.err != nil || !r.rep.Drain {
			t.Fatalf("reply after DrainSite = %+v, %v; want Drain set", r.rep, r.err)
		}
		<-gone
	})

	t.Run("failed site's jobs requeued", func(t *testing.T) {
		h, o := parkHead(t, 2, Config{Tuning: config.Tuning{LeaseTTL: 3 * time.Hour}})
		admitSumQuery(t, h, ix, both, 1)
		held := takeAll(t, h, 1)
		ch := parkPoll(h, 0, forever)
		awaitParked(t, o, 0, 1)
		h.FailSite(1)
		r := awaitReply(t, ch)
		granted := 0
		for _, qj := range r.rep.Queries {
			granted += len(qj.Jobs)
		}
		if r.err != nil || granted == 0 || granted > len(held[0].Jobs) {
			t.Fatalf("reply after FailSite = %+v, %v; want some of the %d requeued jobs", r.rep, r.err, len(held[0].Jobs))
		}
	})

	t.Run("own site fenced", func(t *testing.T) {
		h, o := parkHead(t, 1, Config{Tuning: config.Tuning{LeaseTTL: 3 * time.Hour}})
		ch := parkPoll(h, 0, forever)
		awaitParked(t, o, 0, 1)
		h.FailSite(0)
		if r := awaitReply(t, ch); !fault.IsFenced(r.err) {
			t.Fatalf("held poll of a failed site returned %+v, %v; want a fencing error", r.rep, r.err)
		}
	})
}

// TestParkExpiryMatchesUnparkedReply: a hold that runs out answers exactly
// what a non-parking poll gets at that moment, Wait included.
func TestParkExpiryMatchesUnparkedReply(t *testing.T) {
	ix := parkIndex(t)
	for _, tc := range []struct {
		name     string
		tuning   config.Tuning
		wantWait bool
	}{
		{"fail-fast head", config.Tuning{}, false},
		// Fault machinery on and site 1's grants uncommitted: a failure could
		// still requeue them, so the empty answer says poll again.
		{"fault-tolerant head", config.Tuning{LeaseTTL: 3 * time.Hour}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, o := parkHead(t, 2, Config{Tuning: tc.tuning})
			admitSumQuery(t, h, ix, jobs.Placement{0, 1}, 1)
			takeAll(t, h, 1)
			r := awaitReply(t, parkPoll(h, 0, int64(5*time.Millisecond)))
			if r.err != nil {
				t.Fatal(r.err)
			}
			want, err := h.Poll(0, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r.rep, want) || !idleReply(r.rep) || r.rep.Wait != tc.wantWait {
				t.Errorf("reply at expiry = %+v, unparked poll = %+v, want idle with Wait=%v", r.rep, want, tc.wantWait)
			}
			snap := o.Metrics().Snapshot()
			if got := snap[`head_poll_park_seconds{end="expiry"}.count`]; got != 1 {
				t.Errorf("expiry holds recorded = %d, want 1 (snapshot %v)", got, snap)
			}
		})
	}
}

// TestUnparkedPollNeverHeld: ParkNS zero (what cluster.Run and Remote.Poll
// send) or negative is answered on the first evaluation even when idle.
func TestUnparkedPollNeverHeld(t *testing.T) {
	h, o := parkHead(t, 1, Config{})
	for _, park := range []int64{0, -1} {
		rep, err := h.PollFrom(protocol.PollRequest{Site: 0, N: 4, ParkNS: park})
		if err != nil || !idleReply(rep) {
			t.Fatalf("ParkNS=%d: reply %+v, %v; want an idle reply", park, rep, err)
		}
	}
	if n := parkedTotal(o, 0); n != 0 {
		t.Errorf("head_polls_parked_total = %d after non-parking polls, want 0", n)
	}
}

// TestParkedPollCountedOnce: however many times a held request is
// re-evaluated, its shipped spans merge into the trace once,
// head_pool_exhausted_total rises by one, and one hold is recorded.
func TestParkedPollCountedOnce(t *testing.T) {
	h, o := parkHead(t, 3, Config{})
	o.Tracer.Enable()
	evaluations := func() int {
		n := 0
		for _, ev := range o.Tracer.Events() {
			if ev.Name == "request-jobs" {
				n++
			}
		}
		return n
	}
	ch := make(chan pollResult, 1)
	go func() {
		rep, err := h.PollFrom(protocol.PollRequest{Site: 0, N: 4, ParkNS: forever, NowNS: 1,
			Spans: []protocol.WireSpan{{Name: "shipped-once", Cat: "job", TID: 1}}})
		ch <- pollResult{rep, err}
	}()
	awaitParked(t, o, 0, 1)
	// Two wake-ups that leave site 0's answer idle: other sites are drained.
	for i, other := range []int{1, 2} {
		if _, err := h.DrainSite(other); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "re-evaluation", func() bool { return evaluations() >= i+2 })
	}
	h.Shutdown()
	if r := awaitReply(t, ch); r.err != nil || !r.rep.Shutdown {
		t.Fatalf("reply = %+v, %v", r.rep, r.err)
	}
	shipped := 0
	for _, ev := range o.Tracer.Events() {
		if ev.Name == "shipped-once" {
			shipped++
		}
	}
	if shipped != 1 {
		t.Errorf("shipped span merged %d times, want 1", shipped)
	}
	snap := o.Metrics().Snapshot()
	for name, want := range map[string]int64{
		"head_pool_exhausted_total":                  1,
		`head_polls_parked_total{site="0"}`:          1,
		`head_poll_park_seconds{end="event"}.count`:  1,
		`head_poll_park_seconds{end="expiry"}.count`: 0,
	} {
		if snap[name] != want {
			t.Errorf("%s = %d, want %d", name, snap[name], want)
		}
	}
}

// TestParkNoLostWakeup hammers the capture-before-evaluate rule: sites hold
// hour-long polls while queries are admitted, committed to completion and
// canceled as fast as they go. A single lost wake-up leaves a site held for
// an hour, so its query never finishes or its drop notice never lands.
func TestParkNoLostWakeup(t *testing.T) {
	const sites, rounds = 4, 40
	ix := parkIndex(t)
	h, _ := parkHead(t, sites, Config{})
	var dropped [sites]atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < sites; s++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			for {
				rep, err := h.PollFrom(protocol.PollRequest{Site: site, N: 2, ParkNS: forever})
				if err != nil {
					t.Errorf("site %d poll: %v", site, err)
					return
				}
				for _, qj := range rep.Queries {
					if _, err := h.CompleteQueryJobs(qj.Query, site, qj.Jobs); err != nil {
						t.Errorf("site %d commit: %v", site, err)
						return
					}
				}
				for _, id := range rep.Done {
					// A canceled or already-sealed query refuses the result; the
					// sum itself is checked elsewhere.
					_ = h.SubmitQueryResult(protocol.ReductionResult{Site: site, Query: id, Object: encodeSum(0)})
				}
				dropped[site].Add(int64(len(rep.Dropped)))
				if rep.Shutdown {
					return
				}
			}
		}(s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	canceled := int64(0)
	for r := 0; r < rounds; r++ {
		q := admitSumQuery(t, h, ix, jobs.Placement{r % sites, (r + 1) % sites}, 1)
		if r%3 == 2 {
			q.Cancel() // a no-op if the sites already finished the query
		}
		_, _, _, err := q.Wait(ctx)
		switch {
		case errors.Is(err, ErrQueryCanceled):
			canceled++
			for s := range dropped {
				waitFor(t, "drop notice at every site", func() bool { return dropped[s].Load() >= canceled })
			}
		case err != nil:
			t.Fatalf("round %d: query %d: %v (a site slept through its wake-up)", r, q.ID(), err)
		}
	}
	h.Shutdown()
	wg.Wait()
}

// TestStopReleasesParkedSessions: Shutdown answers polls held on live wire
// sessions, and Close then returns with every handler goroutine gone.
func TestStopReleasesParkedSessions(t *testing.T) {
	before := runtime.NumGoroutine()
	o := obs.New(nil)
	h, err := New(Config{ExpectClusters: 2, Logf: t.Logf, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- h.Serve(l) }()
	var conns []*transport.Conn
	for site := 0; site < 2; site++ {
		c, err := transport.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		if err := c.Send(protocol.Hello{Site: site, Cluster: "c" + strconv.Itoa(site), Proto: protocol.ProtoMulti, Codec: protocol.WireBinary}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
		c.UpgradeSend(transport.CodecBinary)
		c.UpgradeRecv(transport.CodecBinary)
		if err := c.Send(protocol.PollRequest{Site: site, N: 4, ParkNS: forever}); err != nil {
			t.Fatal(err)
		}
		awaitParked(t, o, site, 1)
	}
	h.Shutdown()
	for site, c := range conns {
		msg, err := c.Recv()
		if rep, ok := msg.(protocol.PollReply); err != nil || !ok || !rep.Shutdown {
			t.Fatalf("site %d: held poll answered %#v, %v; want PollReply{Shutdown}", site, msg, err)
		}
		c.Close()
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	waitFor(t, "handler and poll goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}

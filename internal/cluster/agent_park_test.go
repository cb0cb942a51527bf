package cluster

import (
	"context"
	"errors"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// eagerHead is a QueryClient whose head never holds a poll: every answer is
// empty and immediate, whatever ParkNS asked for.
type eagerHead struct {
	QueryClient // the agent calls nothing else while it is never granted a job

	mu    sync.Mutex
	polls []time.Time
	parks []int64
	seen  chan struct{} // receives one token per poll
}

func (e *eagerHead) RegisterSite(protocol.Hello) (protocol.SiteSpec, error) {
	return protocol.SiteSpec{}, nil
}

func (e *eagerHead) Poll(req protocol.PollRequest) (protocol.PollReply, error) {
	e.mu.Lock()
	e.polls = append(e.polls, time.Now())
	e.parks = append(e.parks, req.ParkNS)
	e.mu.Unlock()
	e.seen <- struct{}{}
	return protocol.PollReply{}, nil
}

// TestAgentIdlePollRateWithoutParking: against a head that answers empty at
// once, the agent sits out the rest of waitPoll itself — it asks to park for
// waitPoll on every poll and never polls more often than once per waitPoll.
func TestAgentIdlePollRateWithoutParking(t *testing.T) {
	const polls = 6
	e := &eagerHead{seen: make(chan struct{}, polls)}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- RunAgent(ctx, AgentConfig{
			Site: 0, Name: "idle", Cores: 1,
			Sources: map[int]chunk.Source{0: chunk.NewMemSource(&chunk.Index{})},
			Head:    e,
		})
	}()
	for i := 0; i < polls; i++ {
		<-e.seen
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAgent = %v, want context.Canceled", err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, p := range e.parks {
		if p != int64(waitPoll) {
			t.Errorf("poll %d asked to park %v, want %v", i, time.Duration(p), waitPoll)
		}
	}
	// Poll i+1 is sent no sooner than waitPoll after poll i was: the slack
	// covers only the instants between the agent's clock read and the stub's.
	if got, min := e.polls[polls-1].Sub(e.polls[0]), (polls-1)*waitPoll-2*time.Millisecond; got < min {
		t.Errorf("%d idle polls in %v: the agent spins; want at least %v", polls, got, min)
	}
}

// parkedAgents boots a tracing, metered multi-query head and one in-process
// agent per site, and returns once every agent has a poll held at the head.
func parkedAgents(t *testing.T, src chunk.Source, sites int) (h *head.Head, o *obs.Obs, ctxCancel context.CancelFunc, exits []chan error) {
	t.Helper()
	o = obs.New(nil)
	o.Tracer.Enable()
	h, err := head.New(head.Config{ExpectClusters: sites, Logf: t.Logf, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Shutdown)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for s := 0; s < sites; s++ {
		ch := make(chan error, 1)
		exits = append(exits, ch)
		go func(site int) {
			ch <- RunAgent(ctx, AgentConfig{
				Site: site, Name: "agent" + strconv.Itoa(site), Cores: 2,
				Sources: map[int]chunk.Source{site: src},
				Head:    InProcAgent{Head: h},
			})
		}(s)
	}
	for s := 0; s < sites; s++ {
		awaitNewHold(t, o, s, 0)
	}
	return h, o, cancel, exits
}

func holds(o *obs.Obs, site int) int64 {
	return o.Metrics().Counter("head_polls_parked_total", "site", strconv.Itoa(site)).Value()
}

// awaitNewHold returns once the head has begun holding a poll from site
// that it had not yet begun when the counter read since.
func awaitNewHold(t *testing.T, o *obs.Obs, site int, since int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); holds(o, site) <= since; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("site %d never parked a poll at the head", site)
		}
	}
}

func awaitExit(t *testing.T, what string, ch <-chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("agent still running after %s", what)
		return nil
	}
}

// TestParkedAgentStops: an agent whose poll is held at the head still ends
// promptly, on ctx cancellation and on head shutdown alike.
func TestParkedAgentStops(t *testing.T) {
	_, src, _ := buildDataset(t, 400, 100, 100)
	t.Run("ctx canceled", func(t *testing.T) {
		_, _, cancel, exits := parkedAgents(t, src, 1)
		cancel()
		if err := awaitExit(t, "cancel", exits[0]); !errors.Is(err, context.Canceled) {
			t.Errorf("RunAgent = %v, want context.Canceled", err)
		}
	})
	t.Run("head shutdown", func(t *testing.T) {
		h, _, _, exits := parkedAgents(t, src, 1)
		h.Shutdown()
		if err := awaitExit(t, "shutdown", exits[0]); err != nil {
			t.Errorf("RunAgent = %v, want nil", err)
		}
	})
}

// TestParkedAgentsPickUpAdmission: a query admitted while both agents sit in
// held polls is granted to them at once. Pickup is each site's first grant
// span in the head's trace against the call to Admit, both on the head's
// clock, and its median over the rounds must sit far inside waitPoll; an
// agent that slept out a timer instead would pick up after 10 ms on average.
func TestParkedAgentsPickUpAdmission(t *testing.T) {
	const sites, rounds = 2, 9
	ix, src, want := buildDataset(t, 4000, 500, 100) // 8 files × 5 chunks
	h, o, _, _ := parkedAgents(t, src, sites)
	placement := make(jobs.Placement, len(ix.Files))
	for i := range placement {
		placement[i] = i % sites
	}
	spec := protocol.JobSpec{App: "cluster-test-sum", UnitSize: 4}
	if err := head.EncodeIndexSpec(&spec, ix); err != nil {
		t.Fatal(err)
	}
	var pickups []time.Duration
	for r := 0; r < rounds; r++ {
		// Stealing off: every site has its own jobs to be granted.
		pool, err := jobs.NewPool(ix, placement, jobs.Options{DisableStealing: true})
		if err != nil {
			t.Fatal(err)
		}
		o.Tracer.Reset()
		admitted := o.Now() // the head's clock
		q, err := h.Admit(head.QueryConfig{Pool: pool, Reducer: sumReducer{}, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		obj, _, _, err := q.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := obj.(*sumObj).total; got != want {
			t.Fatalf("round %d: sum = %d, want %d", r, got, want)
		}
		var before [sites]int64
		for s := range before {
			before[s] = holds(o, s)
		}
		first := map[int]time.Duration{}
		for _, ev := range o.Tracer.Events() {
			if ev.Name == "grant" && ev.Args["query"] == q.ID() {
				site := ev.Args["site"].(int)
				if _, ok := first[site]; !ok {
					first[site] = ev.TS
				}
			}
		}
		if len(first) != sites {
			t.Fatalf("round %d: grants went to sites %v, want all %d", r, first, sites)
		}
		var slowest time.Duration
		for _, ts := range first {
			if d := ts - admitted; d > slowest {
				slowest = d
			}
		}
		pickups = append(pickups, slowest)
		for s := range before {
			awaitNewHold(t, o, s, before[s]) // both parked again before the next admission
		}
	}
	sort.Slice(pickups, func(i, k int) bool { return pickups[i] < pickups[k] })
	t.Logf("admit→grant pickup, slowest site per round: %v", pickups)
	if med := pickups[rounds/2]; med > waitPoll/4 {
		t.Errorf("median admit→grant pickup %v over %d rounds (all: %v), want under %v", med, rounds, pickups, waitPoll/4)
	}
}

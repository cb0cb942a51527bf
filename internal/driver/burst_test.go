package driver

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/appcfg"
	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/elastic"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// registerSite says Hello to h as site.
func registerSite(t *testing.T, h *head.Head, site int) {
	t.Helper()
	if _, err := h.RegisterSite(protocol.Hello{Site: site, Cluster: fmt.Sprint("c", site),
		Proto: protocol.ProtoMulti}); err != nil {
		t.Fatal(err)
	}
}

// admitKNN admits a 10-job knn query hosted at site 0 into h.
func admitKNN(t *testing.T, h *head.Head, p *elastic.Policy) {
	t.Helper()
	ix, err := chunk.Layout("p", 100, 4, 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := jobs.NewPool(ix, jobs.Placement{0, 0}, jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, reducer, unit, err := appcfg.Build(appcfg.Spec{App: "knn", Dim: 1, K: 1, Query: "0.5"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Admit(head.QueryConfig{Pool: pool, Reducer: reducer,
		Spec: protocol.JobSpec{App: "knn", UnitSize: unit}, Policy: p}); err != nil {
		t.Fatal(err)
	}
}

// startHandTicked starts headnode's advise-only burst loop over h with an
// interval no test outlives, so only the test's own tick calls step it.
func startHandTicked(t *testing.T, h *head.Head, o *obs.Obs, logf func(string, ...any)) *BurstLoop {
	t.Helper()
	arb, err := elastic.NewArbiter(elastic.ArbiterConfig{Interval: time.Hour, MaxWorkers: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := StartBurstLoop(h, arb, nil, o, logf)
	t.Cleanup(b.Close)
	return b
}

// TestElasticAdvisorAdvisesAndDrains drives an advise-only burst loop (no
// launcher, observed-throughput estimator — the headnode's wiring) for
// three ticks against an in-process head admitting one deadline-carrying
// query: the first tick has no throughput sample and holds silently, the
// second sees the static site too slow for the deadline and logs one launch
// advisory, and the third — the pool drained, an operator-launched burst
// site registered — releases that site through the head's graceful drain.
// The site is billed from its first sighting, and its gauge settles once it
// has left.
func TestElasticAdvisorAdvisesAndDrains(t *testing.T) {
	h, err := head.New(head.Config{ExpectClusters: 1, DynamicSites: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	registerSite(t, h, 0)
	admitKNN(t, h, &elastic.Policy{Deadline: 20 * time.Second})
	// commit has site 0 fetch and complete up to n jobs, as an agent does.
	agent := cluster.InProcAgent{Head: h}
	commit := func(n int) {
		t.Helper()
		rep, err := agent.Poll(protocol.PollRequest{Site: 0, N: n})
		if err != nil {
			t.Fatal(err)
		}
		for _, qj := range rep.Queries {
			if _, err := agent.CompleteJobs(protocol.JobsDone{Site: 0, Query: qj.Query, Jobs: qj.Jobs}); err != nil {
				t.Fatal(err)
			}
		}
	}

	var logs []string
	o := obs.New(nil)
	b := startHandTicked(t, h, o, func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	})
	count := func(substr string) (n int) {
		for _, l := range logs {
			if strings.Contains(l, substr) {
				n++
			}
		}
		return n
	}

	b.tick(5 * time.Second) // 10 jobs left, no rate sample yet
	if len(logs) != 0 {
		t.Fatalf("first tick logged %q, want a silent hold", logs)
	}
	commit(1)
	// One job per 5s leaves 9 jobs ≈ 45s of work against a 20s deadline.
	b.tick(10 * time.Second)
	if count("elastic advisory: launch") != 1 || len(logs) != 1 {
		t.Fatalf("second tick logged %q, want exactly one launch advisory", logs)
	}
	registerSite(t, h, head.BurstSiteBase) // the operator follows the advice
	for len(h.QueryLoads()) > 0 {
		commit(4)
	}
	b.tick(15 * time.Second)
	if count("draining site 1000") != 1 || count("elastic advisory: launch") != 1 {
		t.Fatalf("third tick logged %q, want one drain of site 1000 and no further advisory", logs)
	}
	// The drain reached the head: the never-polled burst site is told to leave.
	rep, err := agent.Poll(protocol.PollRequest{Site: head.BurstSiteBase, N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drain {
		t.Fatalf("burst site's poll = %+v, want Drain", rep)
	}
	siteGauge := o.Registry.Gauge("elastic_workers", "cluster", "burst-1000")
	if siteGauge.Value() != 1 {
		t.Fatalf("burst-1000 gauge = %d before its departure was seen, want 1", siteGauge.Value())
	}
	b.tick(20 * time.Second)
	if siteGauge.Value() != 0 {
		t.Fatalf("burst-1000 gauge = %d after it departed, want 0", siteGauge.Value())
	}
	if n := o.Registry.Counter("elastic_scale_events_total", "dir", "down").Value(); n != 1 {
		t.Fatalf("elastic_scale_events_total{dir=down} = %d, want 1", n)
	}
	if c := o.Registry.FloatGauge("elastic_cost_dollars").Value(); c <= 0 {
		t.Fatalf("elastic_cost_dollars = %v, want > 0: site 1000 is billed from its first sighting", c)
	}
}

// TestBurstLoopStopsBillingFencedSite pins the billing rule for a burst
// site that fails: once FailSite fences it, it leaves the head's membership,
// so the next tick closes its episode — it no longer counts as active fleet
// (the arbiter may replace it) and its cost stops growing.
func TestBurstLoopStopsBillingFencedSite(t *testing.T) {
	h, err := head.New(head.Config{ExpectClusters: 1, DynamicSites: true, Logf: t.Logf,
		Tuning: config.Tuning{LeaseTTL: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	registerSite(t, h, 0)
	registerSite(t, h, head.BurstSiteBase) // an operator-started workernode
	admitKNN(t, h, nil)                    // work left, no rate sample: the fleet holds
	b := startHandTicked(t, h, nil, t.Logf)
	arb := b.arb
	b.tick(time.Second)
	if got := arb.ActiveSites(); len(got) != 1 || got[0] != head.BurstSiteBase {
		t.Fatalf("active sites after the first tick = %v, want [1000]", got)
	}
	h.FailSite(head.BurstSiteBase) // the worker crashed
	b.tick(2 * time.Second)
	if got := arb.ActiveSites(); len(got) != 0 {
		t.Fatalf("active sites after the fenced site's tick = %v, want none", got)
	}
	if at2, later := arb.InstanceCost(2*time.Second), arb.InstanceCost(time.Hour); later != at2 {
		t.Fatalf("instance cost keeps growing after the site was fenced: $%v at 2s, $%v at 1h", at2, later)
	}
}

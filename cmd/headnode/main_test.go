package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/appcfg"
	"repro/internal/chunk"
	"repro/internal/elastic"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/protocol"
)

// TestElasticAdvisorAdvisesAndDrains drives the advisor for three ticks
// against an in-process head admitting one deadline-carrying query: the
// first tick has no throughput sample and holds silently, the second sees
// the static site too slow for the deadline and logs one launch advisory,
// and the third — the pool drained, an operator-launched burst site
// registered — releases that site through the head's graceful drain.
func TestElasticAdvisorAdvisesAndDrains(t *testing.T) {
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
	h, err := head.New(head.Config{ExpectClusters: 1, DynamicSites: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	register := func(site int) {
		t.Helper()
		if _, err := h.RegisterSite(protocol.Hello{Site: site, Cluster: fmt.Sprint("c", site),
			Proto: protocol.ProtoMulti}); err != nil {
			t.Fatal(err)
		}
	}
	register(0)
	_, err = h.Admit(head.QueryConfig{Pool: pool, Reducer: reducer,
		Spec:   protocol.JobSpec{App: "knn", UnitSize: unit},
		Policy: &elastic.Policy{Deadline: 20 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	// commit has site 0 fetch and complete up to n jobs.
	commit := func(n int) {
		t.Helper()
		rep, err := h.Poll(0, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, qj := range rep.Queries {
			if _, err := h.CompleteQueryJobs(qj.Query, 0, qj.Jobs); err != nil {
				t.Fatal(err)
			}
		}
	}

	var logs []string
	adv, err := newElasticAdvisor(h, 4, func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatal(err)
	}
	count := func(substr string) (n int) {
		for _, l := range logs {
			if strings.Contains(l, substr) {
				n++
			}
		}
		return n
	}

	adv.tick(5 * time.Second) // 10 jobs left, no rate sample yet
	if len(logs) != 0 {
		t.Fatalf("first tick logged %q, want a silent hold", logs)
	}
	commit(1)
	// One job per 5s leaves 9 jobs ≈ 45s of work against a 20s deadline.
	adv.tick(10 * time.Second)
	if count("elastic advisory: launch") != 1 || len(logs) != 1 {
		t.Fatalf("second tick logged %q, want exactly one launch advisory", logs)
	}
	register(elastic.DefaultWorkerSiteBase) // the operator follows the advice
	for len(h.QueryLoads()) > 0 {
		commit(4)
	}
	adv.tick(15 * time.Second)
	if count("draining site 1000") != 1 || count("elastic advisory: launch") != 1 {
		t.Fatalf("third tick logged %q, want one drain of site 1000 and no further advisory", logs)
	}
	// The drain reached the head: the never-polled burst site is told to leave.
	rep, err := h.Poll(elastic.DefaultWorkerSiteBase, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drain {
		t.Fatalf("burst site's poll = %+v, want Drain", rep)
	}
}

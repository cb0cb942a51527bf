package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"

	"repro/internal/chunk"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// TestLiveObservability runs a two-cluster hybrid job in-process with one
// shared Obs attached to the head, the pool, and both clusters, then checks
// that the metrics registry and the trace agree with the run's ground truth.
// This is the live (wall-clock) counterpart of the simulator trace tests.
func TestLiveObservability(t *testing.T) {
	ix, src, want := buildDataset(t, 8000, 1000, 100) // 8 files × 10 chunks
	placement := jobs.SplitByFraction(len(ix.Files), 0.25, 0, 1)

	o := obs.New(nil)
	o.Tracer.Enable()

	h, q := admitHead(t, head.Config{ExpectClusters: 2, Obs: o}, ix, placement, jobs.Options{Metrics: o.Registry})
	sources := map[int]chunk.Source{0: src, 1: src}
	s := runAgents(t, h, q,
		AgentConfig{Site: 0, Name: "local", Cores: 2, Sources: sources, Obs: o},
		AgentConfig{Site: 1, Name: "cloud", Cores: 2, Sources: sources, Obs: o})
	if got := s.sum(t); got != want {
		t.Errorf("final sum = %d, want %d", got, want)
	}

	// Metrics agree with the run's ground truth on every layer.
	reg := o.Registry
	nJobs := int64(ix.NumChunks())
	l, st := s.jobs()
	local, stolen := int64(l), int64(st)
	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"cluster_jobs_local_total", reg.Counter("cluster_jobs_local_total").Value(), local},
		{"cluster_jobs_stolen_total", reg.Counter("cluster_jobs_stolen_total").Value(), stolen},
		{"pool_jobs_assigned_local_total", reg.Counter("pool_jobs_assigned_local_total").Value(), local},
		{"pool_jobs_assigned_stolen_total", reg.Counter("pool_jobs_assigned_stolen_total").Value(), stolen},
		{"head_jobs_granted_total", reg.Counter("head_jobs_granted_total").Value(), nJobs},
		{"head_results_total", reg.Counter("head_results_total").Value(), 2},
		{"pool_jobs_remaining", reg.Gauge("pool_jobs_remaining").Value(), 0},
		{"pool_jobs_outstanding", reg.Gauge("pool_jobs_outstanding").Value(), 0},
		{"cluster_retrievals_inflight", reg.Gauge("cluster_retrievals_inflight").Value(), 0},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	hists := int64(0)
	for _, lbl := range []string{"local", "site0", "site1"} {
		hists += reg.Histogram("cluster_retrieval_seconds_"+lbl, nil).Count()
	}
	if hists != nJobs {
		t.Errorf("retrieval histogram observations = %d, want %d", hists, nJobs)
	}

	// Every cluster's Sync component is its timed local merge, never zero.
	for _, r := range s.reports {
		if r.Breakdown.Sync <= 0 {
			t.Errorf("site %d reported Sync = %v, want the local merge's duration", r.Site, r.Breakdown.Sync)
		}
	}

	// Trace: the masters' spans ride their polls into the head's trace — one
	// retrieval and one process span per job, one local-merge span per
	// cluster, on the site's own lanes and exactly once although head and
	// masters share the tracer — and the whole thing exports as valid Chrome
	// trace JSON.
	var retrSpans, jobSpans, mergeSpans, grants int
	for _, ev := range o.Tracer.Events() {
		if ev.Phase != 'X' {
			continue
		}
		switch {
		case ev.Cat == "retrieval":
			retrSpans++
			if ev.PID != 1 && ev.PID != 2 {
				t.Errorf("retrieval span on pid %d, want a site lane (1 or 2)", ev.PID)
			}
		case ev.Cat == "job" && ev.Name == "process":
			jobSpans++
		case ev.Cat == "sync" && ev.Name == "local-merge":
			mergeSpans++
		case ev.Cat == "scheduling" && ev.Name == "request-jobs":
			grants++
		}
	}
	if retrSpans != int(nJobs) || jobSpans != int(nJobs) {
		t.Errorf("retrieval spans = %d, process spans = %d, want %d each", retrSpans, jobSpans, nJobs)
	}
	if mergeSpans != 2 {
		t.Errorf("merge spans = %d, want 2", mergeSpans)
	}
	if grants == 0 {
		t.Error("no request-jobs spans on the head track")
	}
	var buf bytes.Buffer
	if err := o.Tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Error("trace JSON missing traceEvents")
	}
}

// heldAfterResult is an in-process head connection that holds every poll
// made after the agent's first result until release closes, so nothing the
// agent ships after its result can reach the head's trace while the test
// reads it.
type heldAfterResult struct {
	InProcAgent
	submitted atomic.Bool
	release   chan struct{}
}

func (c *heldAfterResult) Poll(req protocol.PollRequest) (protocol.PollReply, error) {
	if c.submitted.Load() {
		<-c.release
	}
	return c.InProcAgent.Poll(req)
}

func (c *heldAfterResult) SubmitResult(res protocol.ReductionResult) error {
	err := c.InProcAgent.SubmitResult(res)
	c.submitted.Store(true)
	return err
}

// TestLiveLastFoldSpansRideTheResult: the agent folds a batch's last group
// only once the poll that commits it is answered, and that answer carries
// the query's Done notice, so those folds' process spans and the local
// merge's span are recorded after the last poll left. They must reach the
// head's trace with the result: when Query.Wait returns, every job has its
// process span although no later poll is let through.
func TestLiveLastFoldSpansRideTheResult(t *testing.T) {
	ix, src, want := buildDataset(t, 4000, 1000, 100) // 4 files × 10 chunks
	o := obs.New(nil)
	o.Tracer.Enable()
	h, q := admitHead(t, head.Config{ExpectClusters: 1, Obs: o}, ix, jobs.SplitByFraction(len(ix.Files), 1, 0, 1), jobs.Options{})
	conn := &heldAfterResult{InProcAgent: InProcAgent{Head: h}, release: make(chan struct{})}
	exit := make(chan error, 1)
	go func() {
		exit <- RunAgent(context.Background(), AgentConfig{
			Site: 0, Name: "local", Cores: 2, Sources: map[int]chunk.Source{0: src}, Head: conn, Logf: t.Logf})
	}()
	obj, _, _, err := q.Wait(context.Background())
	var process, merges int
	for _, ev := range o.Tracer.Events() {
		switch {
		case ev.Phase == 'X' && ev.Cat == "job" && ev.Name == "process":
			process++
		case ev.Phase == 'X' && ev.Cat == "sync" && ev.Name == "local-merge":
			merges++
		}
	}
	close(conn.release)
	h.Shutdown()
	if aerr := <-exit; aerr != nil {
		t.Errorf("agent: %v", aerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*sumObj).total; got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
	if process != ix.NumChunks() || merges != 1 {
		t.Errorf("when Wait returned the trace held %d process spans and %d local-merge spans, want %d and 1",
			process, merges, ix.NumChunks())
	}
}

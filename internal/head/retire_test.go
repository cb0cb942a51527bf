package head_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/protocol"
)

// This file is an external test package so it can run real cluster agents
// against the head.

func init() {
	core.Register("head-test-sum", func([]byte) (core.Reducer, error) { return head.SumReducer{}, nil })
}

// retireHead returns a head for two sites with fault machinery and a
// checkpoint store on, and the given sites registered.
func retireHead(t *testing.T, sites ...int) *head.Head {
	t.Helper()
	h, err := head.New(head.Config{
		ExpectClusters: 2,
		Tuning:         config.Tuning{LeaseTTL: time.Hour},
		Fault:          head.FaultConfig{Store: fault.NewMemStore()},
		Logf:           func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Shutdown)
	for _, site := range sites {
		if _, err := h.RegisterSite(protocol.Hello{Site: site, Cluster: fmt.Sprint("c", site), Proto: protocol.ProtoMulti}); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// admitRetire admits one sum query over ix with its files split between
// sites 0 and 1.
func admitRetire(t *testing.T, h *head.Head, ix *chunk.Index) *head.Query {
	t.Helper()
	pool, err := jobs.NewPool(ix, jobs.SplitByFraction(len(ix.Files), 0.5, 0, 1), jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := protocol.JobSpec{App: "head-test-sum", UnitSize: 4}
	if err := head.EncodeIndexSpec(&spec, ix); err != nil {
		t.Fatal(err)
	}
	q, err := h.Admit(head.QueryConfig{Pool: pool, Reducer: head.SumReducer{}, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func retained(t *testing.T, h *head.Head, want int) {
	t.Helper()
	if qs, order := h.Retained(); qs != want || order != want {
		t.Errorf("head retains %d queries (%d in admission order), want %d", qs, order, want)
	}
}

// TestFinishedQueriesRetire: 50 queries run one after another through two
// in-process agents, and the head keeps none of them once they finish,
// while each client handle still answers Wait with the object and reports.
func TestFinishedQueriesRetire(t *testing.T) {
	ix, err := chunk.Layout("retire", 800, 4, 200, 50) // 4 files × 4 chunks
	if err != nil {
		t.Fatal(err)
	}
	src := chunk.NewMemSource(ix)
	var want uint64
	unit := 0
	for _, f := range ix.Files {
		buf := make([]byte, f.Size)
		for off := 0; off < len(buf); off += 4 {
			binary.LittleEndian.PutUint32(buf[off:], uint32(unit%97))
			want += uint64(unit % 97)
			unit++
		}
		if err := src.WriteFile(f.Name, buf); err != nil {
			t.Fatal(err)
		}
	}
	h := retireHead(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exits := make(chan error, 2)
	for site := range 2 {
		go func() {
			exits <- cluster.RunAgent(ctx, cluster.AgentConfig{
				Site: site, Name: fmt.Sprint("c", site), Cores: 2,
				Sources: map[int]chunk.Source{0: src, 1: src},
				Head:    cluster.InProcAgent{Head: h},
			})
		}()
	}
	var first *head.Query
	for i := range 50 {
		q := admitRetire(t, h, ix)
		if i == 0 {
			first = q
		}
		obj, _, _, err := q.Wait(context.Background())
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got := head.SumTotal(obj); got != want {
			t.Fatalf("query %d sum = %d, want %d", i, got, want)
		}
	}
	retained(t, h, 0)
	obj, reports, _, err := first.Wait(context.Background())
	if err != nil || head.SumTotal(obj) != want {
		t.Fatalf("retired query's Wait: obj %v, err %v", obj, err)
	}
	jobsDone := 0
	for _, r := range reports {
		jobsDone += r.Jobs.Total()
	}
	if jobsDone != ix.NumChunks() {
		t.Errorf("retired query's reports %+v credit %d jobs, want %d", reports, jobsDone, ix.NumChunks())
	}
	h.Shutdown()
	for range 2 {
		if err := <-exits; err != nil {
			t.Errorf("agent exit: %v", err)
		}
	}
}

// TestRetiredQueryAnswers: once a query has finished and left the head, a
// late call naming it gets a finished query's answer — a commit is all
// duplicates, a submit is accepted and dropped, a spec or checkpoint request
// is ErrUnknownQuery — while an ID the head never admitted stays unknown.
func TestRetiredQueryAnswers(t *testing.T) {
	ix, err := chunk.Layout("late", 100, 4, 50, 10) // 2 files × 5 chunks
	if err != nil {
		t.Fatal(err)
	}
	h := retireHead(t, 0)
	q := admitRetire(t, h, ix)
	rep, err := h.Poll(0, 100) // site 0 steals site 1's file too
	if err != nil {
		t.Fatal(err)
	}
	var granted []jobs.Job
	for _, qj := range rep.Queries {
		granted = append(granted, qj.Jobs...)
	}
	if len(granted) != ix.NumChunks() {
		t.Fatalf("granted %d jobs, want %d", len(granted), ix.NumChunks())
	}
	if dups, err := h.CompleteQueryJobs(q.ID(), 0, granted); err != nil || len(dups) > 0 {
		t.Fatalf("first commit: dups %v, err %v", dups, err)
	}
	res := protocol.ReductionResult{Site: 0, Query: q.ID(), Object: head.EncodeSum(7)}
	if err := h.SubmitQueryResult(res); err != nil {
		t.Fatal(err)
	}
	retained(t, h, 0)

	dups, err := h.CompleteQueryJobs(q.ID(), 0, granted[:3])
	if err != nil || !slices.Equal(dups, []int{granted[0].ID, granted[1].ID, granted[2].ID}) {
		t.Errorf("late commit: dups %v, err %v; want every ID a duplicate", dups, err)
	}
	if err := h.SubmitQueryResult(res); err != nil {
		t.Errorf("late submit: %v, want nil", err)
	}
	if _, err := h.QuerySpec(0, q.ID()); !errors.Is(err, head.ErrUnknownQuery) {
		t.Errorf("late spec: %v, want ErrUnknownQuery", err)
	}
	save := protocol.CheckpointSave{Site: 0, Query: q.ID(), Seq: 1}
	if err := h.CheckpointSave(save); !errors.Is(err, head.ErrUnknownQuery) {
		t.Errorf("late checkpoint: %v, want ErrUnknownQuery", err)
	}
	if _, err := h.CompleteQueryJobs(q.ID()+1, 0, granted[:1]); !errors.Is(err, head.ErrUnknownQuery) {
		t.Errorf("commit for a never-admitted ID: %v, want ErrUnknownQuery", err)
	}
	if obj, _, _, err := q.Wait(context.Background()); err != nil || head.SumTotal(obj) != 7 {
		t.Errorf("Wait after retirement: obj %v, err %v", obj, err)
	}
}

// TestCanceledQueryRetiresAfterDroppedNotices: a canceled query stays at
// the head until every registered site has been sent its Dropped notice.
func TestCanceledQueryRetiresAfterDroppedNotices(t *testing.T) {
	ix, err := chunk.Layout("cancel", 100, 4, 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	h := retireHead(t, 0, 1)
	q := admitRetire(t, h, ix)
	q.Cancel()
	retained(t, h, 1)
	for i, site := range []int{0, 1} {
		rep, err := h.Poll(site, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rep.Dropped, []int{q.ID()}) {
			t.Fatalf("site %d: Dropped %v, want [%d]", site, rep.Dropped, q.ID())
		}
		retained(t, h, 1-i)
	}
	if _, _, _, err := q.Wait(context.Background()); !errors.Is(err, head.ErrQueryCanceled) {
		t.Errorf("Wait on the retired canceled query: %v, want ErrQueryCanceled", err)
	}
}

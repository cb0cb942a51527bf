package head

import (
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/jobs"
	"repro/internal/protocol"
)

func admitPool(t *testing.T) *jobs.Pool {
	t.Helper()
	ix, err := chunk.Layout("p", 100, 4, 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := jobs.NewPool(ix, jobs.Placement{0, 1}, jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// TestAdmitPolicyValidationAndStamp: an invalid per-query policy is refused
// at admission; a valid one is copied onto the query and stamped into the
// spec masters fetch.
func TestAdmitPolicyValidationAndStamp(t *testing.T) {
	h, err := New(Config{ExpectClusters: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	if _, err := h.RegisterSite(protocol.Hello{Site: 0, Cluster: "a", Proto: protocol.ProtoMulti}); err != nil {
		t.Fatal(err)
	}
	bad := &protocol.ElasticPolicy{Deadline: -time.Second}
	if _, err := h.Admit(QueryConfig{Pool: admitPool(t), Reducer: sumReducer{},
		Spec: protocol.JobSpec{App: "sum", UnitSize: 4}, Policy: bad}); err == nil {
		t.Fatal("negative deadline admitted")
	}
	pol := &protocol.ElasticPolicy{Deadline: 90 * time.Second, Budget: 0.25, MaxWorkers: 4}
	q, err := h.Admit(QueryConfig{Pool: admitPool(t), Reducer: sumReducer{},
		Spec: protocol.JobSpec{App: "sum", UnitSize: 4}, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	// The stored policy is a copy: mutating the caller's struct must not
	// leak into the admitted query.
	pol.Budget = 99
	if got := q.Policy(); got == nil || got.Deadline != 90*time.Second || got.Budget != 0.25 {
		t.Errorf("query policy = %+v", got)
	}
	spec, err := h.QuerySpec(0, q.ID())
	if err != nil {
		t.Fatal(err)
	}
	want := protocol.ElasticPolicy{Deadline: 90 * time.Second, Budget: 0.25, MaxWorkers: 4}
	if spec.Policy != want {
		t.Errorf("spec.Policy = %+v, want %+v", spec.Policy, want)
	}
}

// TestQueryLoadsSnapshot: QueryLoads reports only queries with work left,
// with their weights and policies, keyed the way the arbiter consumes them.
func TestQueryLoadsSnapshot(t *testing.T) {
	h, err := New(Config{ExpectClusters: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	pol := &protocol.ElasticPolicy{Deadline: time.Minute}
	q0, err := h.Admit(QueryConfig{Pool: admitPool(t), Reducer: sumReducer{},
		Spec: protocol.JobSpec{App: "sum", UnitSize: 4}, Weight: 3, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	q1, err := h.Admit(QueryConfig{Pool: admitPool(t), Reducer: sumReducer{},
		Spec: protocol.JobSpec{App: "sum", UnitSize: 4}})
	if err != nil {
		t.Fatal(err)
	}
	loads := h.QueryLoads()
	if len(loads) != 2 {
		t.Fatalf("loads = %d, want 2", len(loads))
	}
	if loads[0].Query != q0.ID() || loads[0].Weight != 3 || loads[0].Policy == nil ||
		loads[0].Policy.Deadline != time.Minute {
		t.Errorf("load 0 = %+v", loads[0])
	}
	if loads[1].Query != q1.ID() || loads[1].Weight != 1 || loads[1].Policy != nil {
		t.Errorf("load 1 = %+v", loads[1])
	}
	var total int64
	for _, b := range loads[0].Remaining {
		total += b
	}
	if total != 400 {
		t.Errorf("remaining bytes = %d, want 400 (100 units × 4B)", total)
	}
	q1.Cancel()
	if loads = h.QueryLoads(); len(loads) != 1 || loads[0].Query != q0.ID() {
		t.Errorf("loads after cancel = %+v", loads)
	}
}

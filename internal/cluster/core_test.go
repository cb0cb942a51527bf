package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/stats"
)

// TestAgentCore drives the agent's protocol state directly — no head, no
// clock, no goroutines — through each rule both executors rely on.
func TestAgentCore(t *testing.T) {
	local := func(id int) jobs.Job { return jobs.Job{ID: id, Site: 0} }
	stolen := func(id int) jobs.Job { return jobs.Job{ID: id, Site: 1} }
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, c *AgentCore)
	}{
		{"duplicate is not folded", func(t *testing.T, c *AgentCore) {
			if !c.Committed(7, local(1), false) {
				t.Error("first commit not folded")
			}
			if c.Committed(7, local(2), true) {
				t.Error("duplicate folded")
			}
			if !c.Committed(7, stolen(3), false) {
				t.Error("stolen commit not folded")
			}
			if got, want := c.Credit(7), (stats.JobAccounting{Local: 1, Stolen: 1}); got != want {
				t.Errorf("credit %+v, want %+v", got, want)
			}
		}},
		{"checkpoint covers sorted IDs at seq+1", func(t *testing.T, c *AgentCore) {
			for _, id := range []int{5, 2, 9} {
				c.Committed(7, local(id), false)
			}
			save, n := c.Checkpoint(7, []byte("obj"))
			if n != 3 || save.Seq != 1 || save.Query != 7 || save.Site != 0 {
				t.Fatalf("checkpoint n=%d %+v, want 3 jobs at seq 1 for query 7", n, save)
			}
			ck, err := fault.DecodeCheckpoint(save.Data)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ck.Completed, []int{2, 5, 9}) || ck.Seq != 1 || string(ck.Object) != "obj" {
				t.Errorf("checkpoint %+v, want IDs [2 5 9] at seq 1 holding obj", ck)
			}
			// Until one lands, the next checkpoint covers the same jobs anew.
			if save, n := c.Checkpoint(7, nil); n != 3 || save.Seq != 2 {
				t.Errorf("unlanded re-checkpoint n=%d seq=%d, want 3 at seq 2", n, save.Seq)
			}
			c.Landed(7, 3)
			if _, n := c.Checkpoint(7, nil); n != 0 {
				t.Errorf("checkpoint with nothing new covers %d jobs", n)
			}
			c.Landed(7, 1) // an older checkpoint landing late moves nothing
			if _, n := c.Checkpoint(7, nil); n != 0 {
				t.Errorf("a late landing reopened %d covered jobs", n)
			}
			c.Committed(7, local(4), false)
			if save, n := c.Checkpoint(7, nil); n != 4 || save.Seq != 3 {
				t.Errorf("checkpoint after a new fold n=%d seq=%d, want 4 at seq 3", n, save.Seq)
			}
		}},
		{"resume adopts seq and IDs", func(t *testing.T, c *AgentCore) {
			ckpt := fault.Checkpoint{Site: 0, Seq: 4, Object: []byte("saved"), Completed: []int{1, 3}}.Encode()
			obj, err := c.Resume(7, ckpt, nil)
			if err != nil || string(obj) != "saved" {
				t.Fatalf("Resume = %q, %v; want the saved object", obj, err)
			}
			if _, n := c.Checkpoint(7, nil); n != 0 {
				t.Errorf("resumed IDs not landed: checkpoint covers %d", n)
			}
			c.Committed(7, local(2), false)
			save, n := c.Checkpoint(7, nil)
			ck, _ := fault.DecodeCheckpoint(save.Data)
			if n != 3 || save.Seq != 5 || !reflect.DeepEqual(ck.Completed, []int{1, 2, 3}) {
				t.Errorf("checkpoint after resume n=%d seq=%d IDs %v, want 3 at seq 5 [1 2 3]", n, save.Seq, ck.Completed)
			}
			// A live object's credit is opaque: only the new fold ships.
			if got := c.Credit(7); got != (stats.JobAccounting{Local: 1}) {
				t.Errorf("credit after resume %+v, want 1 local", got)
			}
		}},
		{"resume reads the object's credit", func(t *testing.T, c *AgentCore) {
			ckpt := fault.Checkpoint{Seq: 1, Object: []byte{2, 5}, Completed: []int{1}}.Encode()
			credit := func(obj []byte) (stats.JobAccounting, error) {
				return stats.JobAccounting{Local: int(obj[0]), Stolen: int(obj[1])}, nil
			}
			if _, err := c.Resume(7, ckpt, credit); err != nil {
				t.Fatal(err)
			}
			if res := c.Ship(7, nil); res.LocalJobs != 2 || res.StolenJobs != 5 {
				t.Errorf("shipped credit %d+%d, want 2+5", res.LocalJobs, res.StolenJobs)
			}
		}},
		{"resume rejects a garbled checkpoint", func(t *testing.T, c *AgentCore) {
			good := fault.Checkpoint{Seq: 1, Object: []byte("x"), Completed: []int{1}}.Encode()
			for name, ckpt := range map[string][]byte{
				"garbage":   []byte("not a checkpoint"),
				"truncated": good[:len(good)-2],
			} {
				if _, err := c.Resume(7, ckpt, nil); err == nil {
					t.Errorf("%s checkpoint accepted", name)
				}
			}
		}},
		{"checkpoint due every N folds of the state", func(t *testing.T, c *AgentCore) {
			var due []int
			for id := 1; id <= 7; id++ {
				// Job 3 is a duplicate: it is not folded and does not count.
				if c.Committed(7, local(id), id == 3) && c.CheckpointDue(7) {
					due = append(due, id)
				}
			}
			if want := []int{2, 5, 7}; !reflect.DeepEqual(due, want) {
				t.Errorf("due after jobs %v, want %v", due, want)
			}
			if c.CheckpointDue(8) {
				t.Error("a query never folded is due")
			}
			// A resume starts the count at zero, whatever the checkpoint covers.
			ckpt := fault.Checkpoint{Seq: 1, Object: []byte("x"), Completed: []int{1, 2, 3}}.Encode()
			if _, err := c.Resume(7, ckpt, nil); err != nil {
				t.Fatal(err)
			}
			if c.Committed(7, local(8), false); c.CheckpointDue(7) {
				t.Error("due after one fold of the resumed state")
			}
			if c.Committed(7, local(9), false); !c.CheckpointDue(7) {
				t.Error("not due after two folds of the resumed state")
			}
			// A shipped object's state ends; the next object counts anew.
			if res := c.Ship(7, []byte("obj")); res.Query != 7 || res.LocalJobs != 2 || !bytes.Equal(res.Object, []byte("obj")) {
				t.Errorf("Ship = %+v, want 2 local jobs in obj", res)
			}
			if c.Committed(7, local(10), false); c.CheckpointDue(7) {
				t.Error("due after one fold of a new object")
			}
		}},
		{"reset forgets every query", func(t *testing.T, c *AgentCore) {
			c.Committed(7, local(1), false)
			c.Committed(8, stolen(2), false)
			c.Reset()
			for _, q := range []int{7, 8} {
				if got := c.Credit(q); got != (stats.JobAccounting{}) {
					t.Errorf("query %d credit %+v after reset", q, got)
				}
				if _, n := c.Checkpoint(q, nil); n != 0 {
					t.Errorf("query %d checkpoint covers %d jobs after reset", q, n)
				}
			}
		}},
		{"never-seen query ships zero credit", func(t *testing.T, c *AgentCore) {
			c.Committed(7, local(1), false)
			res := c.Ship(42, []byte("identity"))
			if res.Query != 42 || res.LocalJobs != 0 || res.StolenJobs != 0 {
				t.Errorf("Ship of an unseen query = %+v; want zero credit", res)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, NewAgentCore(0, "local", 2, 2))
		})
	}
}

// TestAgentCoreTracksIDsOnlyForCheckpoints: without checkpoints the core
// keeps no ID list, so it has no checkpoint to name.
func TestAgentCoreTracksIDsOnlyForCheckpoints(t *testing.T) {
	c := NewAgentCore(0, "local", 2, 0)
	c.Committed(7, jobs.Job{ID: 1}, false)
	if c.CheckpointDue(7) {
		t.Error("a core without checkpoints is due for one")
	}
	if _, n := c.Checkpoint(7, nil); n != 0 {
		t.Errorf("untracked core named a checkpoint of %d jobs", n)
	}
	if h := c.Hello(); h.Site != 0 || h.Cluster != "local" || h.Cores != 2 || h.Trace.Zero() {
		t.Errorf("Hello = %+v", h)
	}
}

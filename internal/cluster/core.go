package cluster

import (
	"sort"

	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// AgentCore is an agent's protocol state, apart from any clock: per head
// query ID, the credit of the object the agent is building, the job IDs it
// covers, its checkpoint seq and landed boundary, and when it is due for its
// next checkpoint. RunAgent drives it on the wall clock, the simulator
// (internal/hybridsim) on its virtual one, each calling a method where the
// event happens. It is not safe for concurrent use.
type AgentCore struct {
	hello protocol.Hello
	// every is the checkpoint cadence in folds; 0 disables checkpoints. Only
	// a checkpoint names the IDs an object covers, so without checkpoints the
	// core allocates nothing per job.
	every int
	// queries holds the few queries the agent serves at a time; a scan
	// finds one faster than a map lookup, with no allocation per query.
	queries []coreQuery
}

type coreQuery struct {
	id     int // the head's query ID
	credit stats.JobAccounting
	folds  int   // since the state began: a resume starts at zero
	folded []int // with checkpoints, in fold order
	seq    int   // of the last checkpoint
	landed int   // IDs a landed checkpoint covers
}

// NewAgentCore returns the state of the agent for site. A query checkpoints
// every checkpointEvery folds of its state; 0 never checkpoints.
func NewAgentCore(site int, name string, cores, checkpointEvery int) *AgentCore {
	// The non-zero Trace adverts trace propagation; a head with a live
	// tracer confirms it in SiteSpec.Trace.
	return &AgentCore{hello: protocol.Hello{Site: site, Cluster: name, Cores: cores,
		Proto: protocol.ProtoMulti, Trace: protocol.TraceContext{SpanID: uint64(site) + 1}},
		every: max(checkpointEvery, 0)}
}

// Hello is what every incarnation of the agent registers with.
func (c *AgentCore) Hello() protocol.Hello { return c.hello }

// Reset ends the incarnation — after a fenced answer to any head call, or a
// crash — by forgetting every query. The caller registers again; the head
// has reissued what no landed checkpoint covers.
func (c *AgentCore) Reset() { c.queries = nil }

// Drop forgets a query the head canceled.
func (c *AgentCore) Drop(query int) { c.forget(query) }

// find returns the state of query id, or nil; the pointer is good until the
// next query adds one.
func (c *AgentCore) find(id int) *coreQuery {
	for i := range c.queries {
		if c.queries[i].id == id {
			return &c.queries[i]
		}
	}
	return nil
}

func (c *AgentCore) query(id int) *coreQuery {
	if q := c.find(id); q != nil {
		return q
	}
	c.queries = append(c.queries, coreQuery{id: id})
	return &c.queries[len(c.queries)-1]
}

// forget removes query id.
func (c *AgentCore) forget(id int) {
	q := c.find(id)
	if q == nil {
		return
	}
	last := len(c.queries) - 1
	*q = c.queries[last]
	c.queries[last] = coreQuery{}
	c.queries = c.queries[:last]
}

// Resume adopts the checkpoint a QuerySpec carried for query — its seq, and
// its IDs as landed — and returns its object. credit, if non-nil, reads the
// credit that object holds; a live object's is opaque, so only the
// incarnation's own folds ship as credit.
func (c *AgentCore) Resume(query int, ckpt []byte, credit func(obj []byte) (stats.JobAccounting, error)) ([]byte, error) {
	ck, err := fault.DecodeCheckpoint(ckpt)
	if err != nil {
		return nil, err
	}
	r := coreQuery{id: query, folded: ck.Completed, seq: ck.Seq, landed: len(ck.Completed)}
	if credit != nil {
		if r.credit, err = credit(ck.Object); err != nil {
			return nil, err
		}
	}
	*c.query(query) = r
	return ck.Object, nil
}

// Credit returns the local and stolen jobs folded into query's object.
func (c *AgentCore) Credit(query int) stats.JobAccounting {
	if q := c.find(query); q != nil {
		return q.credit
	}
	return stats.JobAccounting{}
}

// Committed records the head's answer to a commit of j and reports whether
// to fold j: a duplicate is not folded, a first commit joins the credit.
func (c *AgentCore) Committed(query int, j jobs.Job, dup bool) (fold bool) {
	if dup {
		return false
	}
	q := c.query(query)
	if j.Site != c.hello.Site {
		q.credit.Stolen++
	} else {
		q.credit.Local++
	}
	q.folds++
	if c.every > 0 {
		q.folded = append(q.folded, j.ID)
	}
	return true
}

// CheckpointDue reports whether query's last fold completes a checkpoint
// interval: every checkpointEvery folds since its state began, so a resumed
// query counts its own folds, not the checkpoint's.
func (c *AgentCore) CheckpointDue(query int) bool {
	if c.every == 0 {
		return false
	}
	q := c.find(query)
	return q != nil && q.folds > 0 && q.folds%c.every == 0
}

// Checkpoint names the next checkpoint of query's object obj: every ID
// folded so far, sorted, at seq+1. It returns how many jobs that covers, or
// 0 and no checkpoint when a landed one already covers them all.
func (c *AgentCore) Checkpoint(query int, obj []byte) (protocol.CheckpointSave, int) {
	q := c.find(query)
	if q == nil || len(q.folded) <= q.landed {
		return protocol.CheckpointSave{}, 0
	}
	ids := append([]int(nil), q.folded...)
	sort.Ints(ids)
	q.seq++
	site := c.hello.Site
	return protocol.CheckpointSave{Site: site, Seq: q.seq, Query: query,
		Data: fault.Checkpoint{Site: site, Seq: q.seq, Object: obj, Completed: ids}.Encode()}, len(ids)
}

// Landed records that the head accepted a checkpoint of query covering n
// jobs. Checkpoints may land out of order; only more coverage counts.
func (c *AgentCore) Landed(query, n int) {
	if q := c.find(query); q != nil && n > q.landed {
		q.landed = n
	}
}

// Ship answers the head's Done for query with obj and the credit folded
// into it (zero for a query never folded: the identity object), and forgets
// the query: the agent serves nothing until the head has answered, and a
// later commit starts a new object.
func (c *AgentCore) Ship(query int, obj []byte) protocol.ReductionResult {
	res := protocol.ReductionResult{Site: c.hello.Site, Query: query, Object: obj}
	if q := c.find(query); q != nil {
		res.LocalJobs, res.StolenJobs = q.credit.Local, q.credit.Stolen
	}
	c.forget(query)
	return res
}

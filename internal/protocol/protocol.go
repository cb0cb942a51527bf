// Package protocol defines the messages exchanged between the framework's
// node types: the HEAD node (global job assignment and final global
// reduction), the per-cluster MASTER nodes (cluster-local job pools), and
// the object-store daemons. Messages are carried by internal/transport in
// one format: the hand-rolled length-prefixed binary frames defined in
// binary.go, every field at a fixed position (no reflection, no intermediate
// copies). Head↔master sessions are versioned by Hello.Proto.
package protocol

import (
	"fmt"
	"math"
	"time"

	"repro/internal/jobs"
)

// Message is the marker interface for every wire message.
type Message interface{ protoMsg() }

// TraceContext correlates the events of one query (and one exchange within
// it) across processes: the head assigns each admitted query a TraceID, and
// individual grants or submissions carry a SpanID under it. The zero value
// means "no trace"; it still occupies its 16 bytes on the wire.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// Zero reports whether t carries no trace correlation.
func (t TraceContext) Zero() bool { return t.TraceID == 0 && t.SpanID == 0 }

// ElasticPolicy is a query's resolved elastic provisioning policy, which the
// head round-trips in JobSpec.Policy (fetched via QuerySpecRequest). The zero
// value means "no policy"; it still occupies its 32 bytes on the wire.
type ElasticPolicy struct {
	Deadline   time.Duration // target completion time from admission (0 = none)
	Budget     float64       // hard cap on attributed instance spend in dollars (0 = unlimited)
	MinWorkers int           // floor on the burst fleet while the query is active
	MaxWorkers int           // ceiling this query will ever ask the arbiter for (0 = arbiter default)
}

// Validate checks a policy for admission. MaxWorkers 0 is valid: it means
// "the arbiter's session cap".
func (p ElasticPolicy) Validate() error {
	if p.Deadline < 0 || p.Budget < 0 {
		return fmt.Errorf("elastic: negative deadline or budget")
	}
	if math.IsNaN(p.Budget) || math.IsInf(p.Budget, 0) {
		// NaN passes every comparison, and either would read as "no budget".
		return fmt.Errorf("elastic: budget %g is not finite", p.Budget)
	}
	if p.MinWorkers < 0 {
		return fmt.Errorf("elastic: negative MinWorkers")
	}
	if p.MaxWorkers < 0 {
		return fmt.Errorf("elastic: negative MaxWorkers")
	}
	if p.MaxWorkers > 0 && p.MinWorkers > p.MaxWorkers {
		return fmt.Errorf("elastic: MinWorkers %d exceeds MaxWorkers %d", p.MinWorkers, p.MaxWorkers)
	}
	return nil
}

// WireSpan is one completed master-side span shipped to the head,
// piggybacked on PollRequest. Timestamps are on the MASTER's clock; the
// head aligns them using the clock offset derived from PollRequest.NowNS
// before merging the span into its own trace buffer.
type WireSpan struct {
	Trace TraceContext
	Name  string
	Cat   string
	TID   int   // master-side thread (processing lane)
	Query int   // owning query
	Job   int   // job the span covers (-1 for non-job spans)
	Start int64 // span start, nanoseconds on the master's clock
	Dur   int64 // span length, nanoseconds
}

// ---------------------------------------------------------------------------
// Head ↔ Master.

// ProtoMulti is the session protocol version carried in Hello.Proto: the
// master registers once and interleaves jobs from every admitted query over
// the same connection; the head replies with SiteSpec and specs are fetched
// per query. Version 7 retired the JobsDone/JobsDoneAck frames (tags 5 and
// 6): every commit rides a PollRequest. Version 8 dropped JobSpec's
// unit-group budget: each agent folds with its own. docs/PROTOCOL.md
// ("Versioning") lists what each earlier version laid out differently. The
// head answers a Hello of any other version with an ErrorReply coded
// CodeVersionMismatch.
const ProtoMulti = 8

// Hello registers a master with the head node.
type Hello struct {
	// Proto is the session protocol version (ProtoMulti). It is the first
	// field on the wire, so any peer's version is readable before the rest
	// of the layout.
	Proto   int
	Site    int    // site id of the cluster's storage (matches the placement)
	Cluster string // human-readable cluster name ("local", "cloud", …)
	Cores   int    // processing threads the cluster contributes
	// Trace advertises trace propagation: a master that can record and ship
	// spans sends a non-zero SpanID (its session span). The head confirms
	// with a non-zero SiteSpec.Trace/JobSpec.Trace iff its tracer is live;
	// only after that exchange does the master stamp trace data.
	Trace TraceContext
}

// JobSpec is the head's response to QuerySpecRequest: everything a cluster
// needs to start processing one query.
type JobSpec struct {
	App      string // registered reducer name
	Params   []byte // application parameters for the reducer factory
	UnitSize int    // dataset unit size in bytes
	Index    []byte // serialized chunk.Index
	// Checkpoint, when non-empty, is the encoded fault.Checkpoint a
	// re-registering cluster resumes from (its last persisted reduction
	// object plus the job IDs that object covers).
	Checkpoint []byte
	// Query identifies which admitted query this spec belongs to.
	Query int
	// Trace is the query's trace context (TraceID assigned at admission),
	// non-zero only when the head's tracer is live and the master advertised
	// trace support in Hello.Trace.
	Trace TraceContext
	// Policy is the query's resolved elastic policy (deadline, budget,
	// min/max workers) as the head's arbiter sees it. Informational for
	// masters; zero when the query has none.
	Policy ElasticPolicy
}

// JobsDone is one commit in PollRequest.Commits: one query's completed
// jobs, reported back to the head so it can maintain the per-file
// contention counters that drive the stealing heuristic.
type JobsDone struct {
	Site  int
	Query int // owning query
	Jobs  []jobs.Job
	// Trace echoes the grant's trace context so the head can correlate the
	// commit with the grant span. Zero on untraced sessions.
	Trace TraceContext
}

// JobsDoneAck answers one commit in PollReply.Acks: Dup lists the job IDs
// (from the JobsDone) whose contributions were already supplied by another
// copy — the cluster must NOT fold those chunks.
type JobsDoneAck struct {
	Dup  []int
	Err  string
	Code int // typed error code (Code* constants) when Err != ""
}

// Heartbeat renews a cluster's liveness lease. Fire-and-forget; the head
// never replies.
type Heartbeat struct {
	Site int
}

// CheckpointSave asks the head to persist a cluster's reduction-object
// checkpoint (an encoded fault.Checkpoint) in the configured store.
type CheckpointSave struct {
	Site  int
	Seq   int
	Query int // owning query
	// Trace carries the owning query's trace context.
	Trace TraceContext
	Data  []byte
}

// CheckpointAck acknowledges a CheckpointSave.
type CheckpointAck struct {
	Err  string
	Code int // typed error code (Code* constants) when Err != ""
}

// ReductionResult delivers a cluster's encoded reduction object to the head
// once the cluster has processed all its assigned jobs, together with the
// cluster's measured time decomposition (for the experiment reports).
type ReductionResult struct {
	Site       int
	Query      int // owning query (0 in single-query sessions)
	Object     []byte
	Processing int64 // nanoseconds
	Retrieval  int64
	Sync       int64
	LocalJobs  int
	StolenJobs int
	// Trace carries the owning query's trace context.
	Trace TraceContext
}

// ErrorReply reports a failure for the preceding request. Code classifies
// the failure (CodeFenced, CodeUnknownQuery, …) so clients can rebuild the
// head's typed errors across the wire; 0 means unclassified.
type ErrorReply struct {
	Err  string
	Code int
}

// ---------------------------------------------------------------------------
// Head ↔ Master, multi-query sessions (Hello.Proto == ProtoMulti).

// SiteSpec is the head's reply to a multi-query Hello: session-level
// parameters only. Per-query JobSpecs are fetched with QuerySpecRequest as
// queries first appear in a PollReply.
type SiteSpec struct {
	HeartbeatEvery int64 // nanoseconds between heartbeats; 0 disables
	// Trace confirms trace propagation for the session: non-zero (the head's
	// session trace context) iff the head's tracer is live and the master
	// advertised support in Hello.Trace. The master ships spans and stamps
	// its frames only after seeing a non-zero value here.
	Trace TraceContext
}

// PollRequest asks the head for more jobs for the site, drawn from every
// admitted query by weighted fair share: at least N jobs and at least Bytes
// bytes of chunks, where the pools have them. The head refuses a negative N
// or Bytes.
type PollRequest struct {
	Site int
	N    int
	// Bytes is the batch's byte floor: the head keeps granting, one job at
	// a time, while the batch holds fewer than N jobs or fewer than Bytes
	// bytes. Zero asks for N jobs whatever their size.
	Bytes int64
	// NowNS is the master's clock reading when the request was built,
	// letting the head compute a per-site clock offset and align shipped
	// span timestamps onto its own timeline.
	NowNS int64
	// Spans carries master-side spans completed since the last poll —
	// trace shipping piggybacks on poll traffic rather than adding RPCs.
	Spans []WireSpan
	// ParkNS asks the head to hold a reply that would otherwise be empty —
	// no grants, no Done or Dropped notice, no Shutdown or Drain — for up to
	// this many nanoseconds, answering as soon as it has any of those to
	// report. Zero is answered at once.
	ParkNS int64
	// Commits carries group commits, applied in order before the grants are
	// evaluated. A poll that carries any is answered at once, whatever ParkNS
	// asks; one that also asks for nothing (N and Bytes 0) is a commit poll,
	// answered with the acks alone — no grants, no notices, no Drain.
	Commits []JobsDone
}

// QueryJobs is one query's slice of a poll grant.
type QueryJobs struct {
	Query int
	Jobs  []jobs.Job
	// Trace is the grant's trace context: TraceID identifies the query,
	// SpanID the head-side grant span covering this batch. Masters stamp
	// the process spans they record for these jobs with the same TraceID.
	Trace TraceContext
}

// PollReply answers a PollRequest. Queries carries the granted jobs grouped
// by query. Done lists queries whose pools drained and now expect this
// site's reduction result; Dropped lists canceled queries whose state the
// master should discard without submitting. Shutdown means the head is
// closing and the master should finalize what it has and exit. Drain means
// the head has decommissioned this site: every obligation is settled (all
// held jobs committed, all owed reduction objects submitted) and the master
// should exit cleanly. Acks answers the request's Commits, one JobsDoneAck
// per commit in the same order; it is empty when the request carried none.
// An empty reply is never final: a master polls again, parking
// (PollRequest.ParkNS) so the head answers once it has something.
type PollReply struct {
	Queries  []QueryJobs
	Done     []int
	Dropped  []int
	Shutdown bool
	Drain    bool
	Acks     []JobsDoneAck
}

// QuerySpecRequest fetches the JobSpec for one admitted query — sent the
// first time a multi-query master sees the query in a PollReply, and again
// after re-registration (the spec then carries the recovery checkpoint).
type QuerySpecRequest struct {
	Site  int
	Query int
}

// ResultAck acknowledges a ReductionResult. It does not wait for the global
// reduction: the master keeps serving other queries and learns nothing of
// the final object (the submitting client reads it from the head).
type ResultAck struct {
	Err  string
	Code int
}

// ---------------------------------------------------------------------------
// Object store (S3 stand-in).

// Error codes classifying object-store failures for retry policies. The
// zero value (CodeOK) reads as success-or-unclassified.
const (
	CodeOK        = 0 // no error
	CodeTransient = 1 // retryable: connection trouble, transient backend error
	CodeNotFound  = 2 // permanent: no such object
	CodeBadRange  = 3 // permanent: byte range outside the object
	CodeBadKey    = 4 // permanent: the key cannot name an object
)

// Error codes classifying head failures, carried by ErrorReply.Code and
// ResultAck.Code so clients can reconstruct the head's typed errors
// (head.OpError sentinels, fault.ErrFenced) across the wire. Disjoint from
// the object-store codes above so a misrouted reply cannot be misread.
const (
	CodeFenced          = 10 // site's lease expired; re-register to resume
	CodeUnknownQuery    = 11 // query ID never admitted at this head
	CodeCanceled        = 12 // query was canceled
	CodeStale           = 13 // stale checkpoint sequence or superseded request
	CodeShutdown        = 14 // head is shutting down
	CodeVersionMismatch = 15 // Hello.Proto is not this head's ProtoMulti
	CodeBadRequest      = 16 // a request field out of range (a negative poll ask)
)

// PutReq stores an object.
type PutReq struct {
	Key  string
	Data []byte
}

// PutResp acknowledges a PutReq.
type PutResp struct {
	Err  string
	Code int // error classification (CodeOK, CodeTransient, …)
}

// GetReq fetches Len bytes of an object starting at Off. Len < 0 means
// "to the end".
type GetReq struct {
	Key string
	Off int64
	Len int64
}

// GetResp returns the requested range.
type GetResp struct {
	Data []byte
	Err  string
	Code int // error classification (CodeOK, CodeTransient, …)
}

// StatReq asks for an object's size.
type StatReq struct {
	Key string
}

// StatResp returns an object's size, or an error.
type StatResp struct {
	Size int64
	Err  string
	Code int // error classification (CodeOK, CodeTransient, …)
}

// ListReq asks for all keys with the given prefix.
type ListReq struct {
	Prefix string
}

// ListResp returns matching keys in sorted order.
type ListResp struct {
	Keys []string
}

func (Hello) protoMsg()            {}
func (JobSpec) protoMsg()          {}
func (Heartbeat) protoMsg()        {}
func (CheckpointSave) protoMsg()   {}
func (CheckpointAck) protoMsg()    {}
func (ReductionResult) protoMsg()  {}
func (ErrorReply) protoMsg()       {}
func (SiteSpec) protoMsg()         {}
func (PollRequest) protoMsg()      {}
func (PollReply) protoMsg()        {}
func (QuerySpecRequest) protoMsg() {}
func (ResultAck) protoMsg()        {}
func (PutReq) protoMsg()           {}
func (PutResp) protoMsg()          {}
func (GetReq) protoMsg()           {}
func (GetResp) protoMsg()          {}
func (StatReq) protoMsg()          {}
func (StatResp) protoMsg()         {}
func (ListReq) protoMsg()          {}
func (ListResp) protoMsg()         {}

// Package protocol defines the messages exchanged between the framework's
// node types: the HEAD node (global job assignment and final global
// reduction), the per-cluster MASTER nodes (cluster-local job pools), and
// the object-store daemons. Messages are carried by internal/transport in
// one of two codecs: the hand-rolled length-prefixed binary format defined
// in binary.go (the data-plane default — no reflection, no intermediate
// copies) or the original gob envelope, now explicitly opt-in
// (-wire-codec=gob on BOTH peers) and negotiated per session via
// Hello.Codec/SiteSpec.Codec.
package protocol

import (
	"encoding/gob"
	"time"

	"repro/internal/jobs"
)

// Message is the marker interface for every wire message.
type Message interface{ protoMsg() }

// TraceContext correlates the events of one query (and one exchange within
// it) across processes: the head assigns each admitted query a TraceID, and
// individual grants or submissions carry a SpanID under it. The zero value
// means "no trace" — peers predating trace propagation read (and send) zero
// values in both codecs, and senders omit the fields entirely on the wire
// when zero, so untraced sessions are bit-identical to the old format.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// Zero reports whether t carries no trace correlation.
func (t TraceContext) Zero() bool { return t.TraceID == 0 && t.SpanID == 0 }

// ElasticPolicy is a per-query elastic provisioning policy carried on the
// admission path: a submitting peer proposes a session default in
// Hello.Policy, and the head round-trips each query's resolved policy in
// JobSpec.Policy (fetched via QuerySpecRequest). The zero value means "no
// policy" — peers predating per-query policies read (and send) zero values
// in both codecs, and senders omit the fields entirely on the wire when
// zero, so policy-free sessions are bit-identical to the old format.
type ElasticPolicy struct {
	Deadline   time.Duration // target completion time from admission (0 = none)
	Budget     float64       // hard cap on attributed instance spend in dollars (0 = unlimited)
	MinWorkers int           // floor on the burst fleet while the query is active
	MaxWorkers int           // ceiling this query will ever ask the arbiter for (0 = arbiter default)
}

// Zero reports whether p carries no elastic policy.
func (p ElasticPolicy) Zero() bool {
	return p.Deadline == 0 && p.Budget == 0 && p.MinWorkers == 0 && p.MaxWorkers == 0
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

// Wire codec identifiers carried in Hello/JobSpec for live negotiation.
// Gob ignores unknown and missing struct fields, so a peer predating the
// binary codec reads Codec as its zero value (WireGob) and the session
// simply stays on gob.
const (
	WireGob    = 0 // reflection-driven gob envelope (compat fallback)
	WireBinary = 1 // length-prefixed fixed-layout binary codec (binary.go)
)

// ProtoMulti is the session protocol version carried in Hello.Proto: the
// master registers once and interleaves jobs from every admitted query over
// the same connection; the head replies with SiteSpec and specs are fetched
// per query. Version 0 — one query bound per session — is retired: a Hello
// carrying it (or no Proto field at all) is answered with an ErrorReply
// naming the upgrade instead of a hang.
const ProtoMulti = 1

// Hello registers a master with the head node.
type Hello struct {
	Site    int    // site id of the cluster's storage (matches the placement)
	Cluster string // human-readable cluster name ("local", "cloud", …)
	Cores   int    // processing threads the cluster contributes
	// Codec is the best wire codec the master supports (WireGob/WireBinary).
	// The head confirms the session codec in SiteSpec.Codec; both sides
	// upgrade after that exchange.
	Codec int
	// Proto is the session protocol version (ProtoMulti). Masters predating
	// it send no field, read as 0, and are refused.
	Proto int
	// Trace advertises trace propagation: a master that can record and ship
	// spans sends a non-zero SpanID (its session span). The head confirms
	// with a non-zero SiteSpec.Trace/JobSpec.Trace iff its tracer is live;
	// only after that exchange do frames carry trace data. Old peers read
	// the zero value and the session stays untraced.
	Trace TraceContext
	// Policy proposes a session-default elastic policy: the head adopts it
	// as its default (applied to queries admitted without their own policy)
	// unless an earlier Hello's was adopted. Zero means no proposal; old peers read
	// the zero value.
	Policy ElasticPolicy
}

// JobSpec is the head's response to QuerySpecRequest: everything a cluster
// needs to start processing one query.
type JobSpec struct {
	App        string // registered reducer name
	Params     []byte // application parameters for the reducer factory
	UnitSize   int    // dataset unit size in bytes
	GroupBytes int    // cache-sized unit-group budget
	Index      []byte // serialized chunk.Index
	GroupSize  int    // unused: masters size their own requests (kept so frames do not change)
	// Checkpoint, when non-empty, is the encoded fault.Checkpoint a
	// re-registering cluster resumes from (its last persisted reduction
	// object plus the job IDs that object covers).
	Checkpoint []byte
	// Fault carries the head's recovery parameters so the cluster runtime
	// can enable heartbeats and checkpointing without local configuration.
	HeartbeatEvery int64 // nanoseconds between heartbeats; 0 disables
	// Codec is unused: the session codec is confirmed in SiteSpec.Codec (kept
	// so frames do not change).
	Codec int
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

// JobsDone reports completed jobs back to the head so it can maintain the
// per-file contention counters that drive the stealing heuristic.
type JobsDone struct {
	Site  int
	Query int // owning query
	Jobs  []jobs.Job
	// Trace echoes the grant's trace context so the head can correlate the
	// commit with the grant span. Zero on untraced sessions.
	Trace TraceContext
}

// JobsDoneAck is the head's commit response: Dup lists the job IDs (from
// the JobsDone batch) whose contributions were already supplied by another
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
	// Trace carries the owning query's trace context. In the binary codec a
	// non-zero context selects the traced frame tag (the payload tail leaves
	// no room for optional trailing fields); zero contexts encode with the
	// original tag, bit-identical to old frames.
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
	// Trace carries the owning query's trace context (see CheckpointSave for
	// the binary-codec encoding rule).
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
	Codec          int   // session codec: min(head's best, Hello.Codec)
	// Trace confirms trace propagation for the session: non-zero (the head's
	// session trace context) iff the head's tracer is live and the master
	// advertised support in Hello.Trace. The master ships spans and stamps
	// its frames only after seeing a non-zero value here.
	Trace TraceContext
}

// PollRequest asks the head for up to N more jobs for the site, drawn from
// every admitted query by weighted fair share.
type PollRequest struct {
	Site int
	N    int
	// NowNS is the master's clock reading when the request was built,
	// letting the head compute a per-site clock offset and align shipped
	// span timestamps onto its own timeline. Zero on untraced sessions.
	NowNS int64
	// Spans carries master-side spans completed since the last poll —
	// trace shipping piggybacks on poll traffic rather than adding RPCs.
	Spans []WireSpan
	// ParkNS asks the head to hold a reply that would otherwise be empty —
	// no grants, no Done or Dropped notice, no Shutdown or Drain — for up to
	// this many nanoseconds, answering as soon as it has any of those to
	// report. Zero is answered at once.
	ParkNS int64
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
// master should discard without submitting. Wait set with no grants means
// the pools are momentarily empty but recovery/speculation/admission may
// still produce work — poll again. Shutdown means the head is closing and
// the master should finalize what it has and exit. Drain means the head has
// decommissioned this site: every obligation is settled (all held jobs
// committed, all owed reduction objects submitted) and the master should
// exit cleanly.
type PollReply struct {
	Queries  []QueryJobs
	Done     []int
	Dropped  []int
	Wait     bool
	Shutdown bool
	Drain    bool
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
// zero value (CodeOK) keeps old servers' responses (no Code field on the
// wire) reading as success-or-unclassified.
const (
	CodeOK        = 0 // no error
	CodeTransient = 1 // retryable: connection trouble, transient backend error
	CodeNotFound  = 2 // permanent: no such object
	CodeBadRange  = 3 // permanent: byte range outside the object
)

// Error codes classifying head failures, carried by ErrorReply.Code and
// ResultAck.Code so clients can reconstruct the head's typed errors
// (head.OpError sentinels, fault.ErrFenced) across the wire. Disjoint from
// the object-store codes above so a misrouted reply cannot be misread.
const (
	CodeFenced       = 10 // site's lease expired; re-register to resume
	CodeUnknownQuery = 11 // query ID never admitted at this head
	CodeCanceled     = 12 // query was canceled
	CodeStale        = 13 // stale checkpoint sequence or superseded request
	CodeShutdown     = 14 // head is shutting down
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
func (JobsDone) protoMsg()         {}
func (JobsDoneAck) protoMsg()      {}
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

func init() {
	gob.Register(Hello{})
	gob.Register(JobSpec{})
	gob.Register(JobsDone{})
	gob.Register(JobsDoneAck{})
	gob.Register(Heartbeat{})
	gob.Register(CheckpointSave{})
	gob.Register(CheckpointAck{})
	gob.Register(ReductionResult{})
	gob.Register(ErrorReply{})
	gob.Register(SiteSpec{})
	gob.Register(PollRequest{})
	gob.Register(PollReply{})
	gob.Register(QuerySpecRequest{})
	gob.Register(ResultAck{})
	gob.Register(PutReq{})
	gob.Register(PutResp{})
	gob.Register(GetReq{})
	gob.Register(GetResp{})
	gob.Register(StatReq{})
	gob.Register(StatResp{})
	gob.Register(ListReq{})
	gob.Register(ListResp{})
}

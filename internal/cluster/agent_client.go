package cluster

import (
	"fmt"
	"sync"

	"repro/internal/head"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// QueryClient is the agent's view of a multi-query head: one registration
// and one session shared by every admitted query, with per-query spec
// fetches, commits, checkpoints and results. Implementations: InProcAgent
// (same process) and RemoteAgent (wire session).
type QueryClient interface {
	// RegisterSite opens the shared session; per-query specs are fetched
	// lazily with QuerySpec as queries first appear in a poll.
	RegisterSite(hello protocol.Hello) (protocol.SiteSpec, error)
	// QuerySpec fetches one query's job specification (plus this site's
	// recovery checkpoint for it, if any).
	QuerySpec(site, query int) (protocol.JobSpec, error)
	// Poll asks for up to req.N jobs across all queries; see head.PollFrom.
	// The full request travels so completed trace spans (and the clock
	// sample that aligns them) piggyback on the poll.
	Poll(req protocol.PollRequest) (protocol.PollReply, error)
	// CompleteJobs commits finished jobs for one query and returns the IDs
	// the head deduplicated; their contribution must not be folded. Both
	// implementations send it on a commit poll, a poll that carries it and
	// asks for nothing, and read the reply with head.CommitAck.
	CompleteJobs(done protocol.JobsDone) ([]int, error)
	// Heartbeat renews the site's liveness lease (fire-and-forget).
	Heartbeat(site int) error
	// Checkpoint persists a per-query reduction-object checkpoint.
	Checkpoint(cs protocol.CheckpointSave) error
	// SubmitResult delivers one query's reduction object and returns once
	// the head has acknowledged it. The agent calls it from its poll loop, so
	// it serves none of its other queries until then; the final object is
	// read at the head (Query.Wait).
	SubmitResult(res protocol.ReductionResult) error
}

// InProcAgent adapts a head.Head in the same process to QueryClient.
type InProcAgent struct{ Head *head.Head }

// RegisterSite implements QueryClient.
func (c InProcAgent) RegisterSite(hello protocol.Hello) (protocol.SiteSpec, error) {
	return c.Head.RegisterSite(hello)
}

// QuerySpec implements QueryClient.
func (c InProcAgent) QuerySpec(site, query int) (protocol.JobSpec, error) {
	return c.Head.QuerySpec(site, query)
}

// Poll implements QueryClient.
func (c InProcAgent) Poll(req protocol.PollRequest) (protocol.PollReply, error) {
	return c.Head.PollFrom(req)
}

// CompleteJobs implements QueryClient.
func (c InProcAgent) CompleteJobs(done protocol.JobsDone) ([]int, error) {
	var acks [1]protocol.JobsDoneAck // with the request, on the stack: the head keeps neither
	req := protocol.PollRequest{Site: done.Site, Commits: []protocol.JobsDone{done}}
	return head.CommitAck(c.Head.PollInto(req, acks[:0]))
}

// Heartbeat implements QueryClient.
func (c InProcAgent) Heartbeat(site int) error {
	c.Head.Heartbeat(site)
	return nil
}

// Checkpoint implements QueryClient.
func (c InProcAgent) Checkpoint(cs protocol.CheckpointSave) error {
	return c.Head.CheckpointSave(cs)
}

// SubmitResult implements QueryClient.
func (c InProcAgent) SubmitResult(res protocol.ReductionResult) error {
	return c.Head.SubmitQueryResult(res)
}

// RemoteAgent speaks the master protocol over one transport connection. The
// master is the only requester on the connection, and every request that
// expects a reply is serialized under a mutex, so replies correlate by
// ordering. Heartbeats are fire-and-forget (no reply), matching the head's
// handler.
type RemoteAgent struct {
	mu   sync.Mutex
	conn *transport.Conn
	one  [1]protocol.JobsDone // CompleteJobs' commit list, reused under mu
}

// NewRemoteAgent wraps an established connection to the head node.
func NewRemoteAgent(conn *transport.Conn) *RemoteAgent {
	return &RemoteAgent{conn: conn}
}

// DialAgent connects a multi-query agent to the head node at addr.
func DialAgent(network, addr string) (*RemoteAgent, error) {
	conn, err := transport.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return NewRemoteAgent(conn), nil
}

// Close closes the underlying connection.
func (r *RemoteAgent) Close() error { return r.conn.Close() }

// roundTrip sends req and returns the head's reply, rebuilding the head's
// typed error from an ErrorReply.
func (r *RemoteAgent) roundTrip(req protocol.Message) (protocol.Message, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.roundTripLocked(req)
}

// roundTripLocked is roundTrip for a caller that holds r.mu.
func (r *RemoteAgent) roundTripLocked(req protocol.Message) (protocol.Message, error) {
	if err := r.conn.Send(req); err != nil {
		return nil, err
	}
	reply, err := r.conn.Recv()
	if err != nil {
		return nil, err
	}
	if m, ok := reply.(protocol.ErrorReply); ok {
		return nil, head.CodeError(m.Code, m.Err)
	}
	return reply, nil
}

// unexpected reports a reply of the wrong type.
func unexpected(reply, req protocol.Message) error {
	return fmt.Errorf("cluster: unexpected reply %T to %T", reply, req)
}

// ackErr rebuilds the typed error an acknowledgement carries, if any.
func ackErr(code int, msg string) error {
	if msg == "" {
		return nil
	}
	return head.CodeError(code, msg)
}

// RegisterSite implements QueryClient, stamping the Hello with this
// build's protocol version.
func (r *RemoteAgent) RegisterSite(hello protocol.Hello) (protocol.SiteSpec, error) {
	hello.Proto = protocol.ProtoMulti
	reply, err := r.roundTrip(hello)
	if err != nil {
		return protocol.SiteSpec{}, err
	}
	m, ok := reply.(protocol.SiteSpec)
	if !ok {
		return protocol.SiteSpec{}, unexpected(reply, hello)
	}
	return m, nil
}

// QuerySpec implements QueryClient.
func (r *RemoteAgent) QuerySpec(site, query int) (protocol.JobSpec, error) {
	req := protocol.QuerySpecRequest{Site: site, Query: query}
	reply, err := r.roundTrip(req)
	if err != nil {
		return protocol.JobSpec{}, err
	}
	m, ok := reply.(protocol.JobSpec)
	if !ok {
		return protocol.JobSpec{}, unexpected(reply, req)
	}
	return m, nil
}

// Poll implements QueryClient.
func (r *RemoteAgent) Poll(req protocol.PollRequest) (protocol.PollReply, error) {
	reply, err := r.roundTrip(req)
	if err != nil {
		return protocol.PollReply{}, err
	}
	m, ok := reply.(protocol.PollReply)
	if !ok {
		return protocol.PollReply{}, unexpected(reply, req)
	}
	return m, nil
}

// CompleteJobs implements QueryClient, reusing one commit list under r.mu.
func (r *RemoteAgent) CompleteJobs(done protocol.JobsDone) ([]int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.one[0] = done
	reply, err := r.roundTripLocked(protocol.PollRequest{Site: done.Site, Commits: r.one[:]})
	rep, _ := reply.(protocol.PollReply) // any other reply reads as no ack
	return head.CommitAck(rep, err)
}

// Heartbeat implements QueryClient. No reply is expected.
func (r *RemoteAgent) Heartbeat(site int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.conn.Send(protocol.Heartbeat{Site: site})
}

// Checkpoint implements QueryClient.
func (r *RemoteAgent) Checkpoint(cs protocol.CheckpointSave) error {
	reply, err := r.roundTrip(cs)
	if err != nil {
		return err
	}
	m, ok := reply.(protocol.CheckpointAck)
	if !ok {
		return unexpected(reply, cs)
	}
	return ackErr(m.Code, m.Err)
}

// SubmitResult implements QueryClient.
func (r *RemoteAgent) SubmitResult(res protocol.ReductionResult) error {
	reply, err := r.roundTrip(res)
	if err != nil {
		return err
	}
	m, ok := reply.(protocol.ResultAck)
	if !ok {
		return unexpected(reply, res)
	}
	return ackErr(m.Code, m.Err)
}

var (
	_ QueryClient = InProcAgent{}
	_ QueryClient = (*RemoteAgent)(nil)
)

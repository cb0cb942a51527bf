package head

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/protocol"
)

// Sentinel errors for the head's control plane, matchable with errors.Is
// after any amount of wrapping — including an OpError and, via the code
// mapping below, a wire round-trip. Fencing rejections reuse
// fault.ErrFenced so existing fault.IsFenced call sites keep working.
var (
	// ErrUnknownQuery reports a query ID this head never admitted, or a
	// spec or checkpoint request for a query it has retired.
	ErrUnknownQuery = errors.New("head: unknown query")
	// ErrQueryCanceled reports an operation on a canceled query.
	ErrQueryCanceled = errors.New("head: query canceled")
	// ErrShutdown reports an operation on a head that is shutting down.
	ErrShutdown = errors.New("head: shutting down")
	// ErrStaleCheckpoint reports a checkpoint whose sequence number does not
	// advance the site's persisted state.
	ErrStaleCheckpoint = errors.New("head: stale checkpoint")
	// ErrTooManyClusters reports a registration beyond ExpectClusters.
	ErrTooManyClusters = errors.New("head: cluster limit reached")
	// ErrAlreadyRegistered reports a duplicate registration without fault
	// tolerance (with it, re-registration is a recovery, not an error).
	ErrAlreadyRegistered = errors.New("head: site already registered")
	// ErrVersionMismatch reports a Hello whose Proto is not ProtoMulti.
	ErrVersionMismatch = errors.New("head: protocol version mismatch")
	// ErrBadRequest reports a request with a field out of range: a poll
	// asking for a negative number of jobs or bytes.
	ErrBadRequest = errors.New("head: bad request")
)

// OpError is the head's structured error, mirroring objstore's *OpError: it
// records which operation failed, for which site and query, and wraps the
// underlying cause so sentinel matching keeps working.
type OpError struct {
	Op    string // "poll", "complete", "submit", "checkpoint", "register", "spec", "admit"
	Site  int    // requesting site, -1 if not site-scoped
	Query int    // query the operation addressed, -1 if not query-scoped
	Err   error
}

func (e *OpError) Error() string {
	switch {
	case e.Site >= 0 && e.Query >= 0:
		return fmt.Sprintf("head: %s site %d query %d: %v", e.Op, e.Site, e.Query, e.Err)
	case e.Site >= 0:
		return fmt.Sprintf("head: %s site %d: %v", e.Op, e.Site, e.Err)
	default:
		return fmt.Sprintf("head: %s: %v", e.Op, e.Err)
	}
}

func (e *OpError) Unwrap() error { return e.Err }

func opErr(op string, site, query int, err error) *OpError {
	return &OpError{Op: op, Site: site, Query: query, Err: err}
}

// ErrCode classifies err as a protocol error code so remote clients can
// rebuild the matching sentinel on their side of the wire.
func ErrCode(err error) int {
	switch {
	case err == nil:
		return protocol.CodeOK
	case fault.IsFenced(err):
		return protocol.CodeFenced
	case errors.Is(err, ErrUnknownQuery):
		return protocol.CodeUnknownQuery
	case errors.Is(err, ErrQueryCanceled):
		return protocol.CodeCanceled
	case errors.Is(err, ErrStaleCheckpoint):
		return protocol.CodeStale
	case errors.Is(err, ErrShutdown):
		return protocol.CodeShutdown
	case errors.Is(err, ErrVersionMismatch):
		return protocol.CodeVersionMismatch
	case errors.Is(err, ErrBadRequest):
		return protocol.CodeBadRequest
	default:
		return protocol.CodeOK // unclassified; the message text still travels
	}
}

// CodeError reconstructs a typed error from a wire (code, message) pair.
// Unclassified codes yield a plain error carrying the message.
func CodeError(code int, msg string) error {
	if msg == "" && code == protocol.CodeOK {
		return nil
	}
	var sentinel error
	switch code {
	case protocol.CodeFenced:
		sentinel = fault.ErrFenced
	case protocol.CodeUnknownQuery:
		sentinel = ErrUnknownQuery
	case protocol.CodeCanceled:
		sentinel = ErrQueryCanceled
	case protocol.CodeStale:
		sentinel = ErrStaleCheckpoint
	case protocol.CodeShutdown:
		sentinel = ErrShutdown
	case protocol.CodeVersionMismatch:
		sentinel = ErrVersionMismatch
	case protocol.CodeBadRequest:
		sentinel = ErrBadRequest
	default:
		return errors.New(msg)
	}
	if msg == "" {
		return sentinel
	}
	return fmt.Errorf("%s: %w", msg, sentinel)
}

// CommitAck reads the reply to a commit poll (one commit, no ask) as the
// commit's duplicate IDs and its typed error.
func CommitAck(rep protocol.PollReply, err error) ([]int, error) {
	if err != nil {
		return nil, err
	}
	if len(rep.Acks) != 1 {
		return nil, fmt.Errorf("head: a commit poll answered with %d acks", len(rep.Acks))
	}
	return rep.Acks[0].Dup, CodeError(rep.Acks[0].Code, rep.Acks[0].Err)
}

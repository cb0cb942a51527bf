package objstore

import (
	"errors"
	"fmt"

	"repro/internal/protocol"
)

// ErrBadRange reports a byte range outside the object — a permanent error:
// retrying the same request can never succeed.
var ErrBadRange = errors.New("objstore: range out of bounds")

// ErrBadKey reports a Put to a key that cannot name an object — a
// permanent error: the root (""), or, on a DirBackend, a key whose path a
// directory or a stored object's file already takes.
var ErrBadKey = errors.New("objstore: invalid key")

// OpError is the typed error every Client operation returns on failure. It
// classifies the failure so retry and fault policies can stop retrying
// hopeless fetches: dropped connections and short range reads are
// transient, missing objects and bad ranges are permanent.
type OpError struct {
	Op   string // "get", "put", "stat", "list"
	Key  string // object key (or prefix for list)
	Code int    // protocol.CodeTransient, CodeNotFound, CodeBadRange, CodeBadKey
	Msg  string // server- or transport-supplied detail
	Err  error  // underlying error, if any (transport failures)
}

// Error implements error.
func (e *OpError) Error() string {
	return fmt.Sprintf("objstore: %s %q: %s", e.Op, e.Key, e.Msg)
}

// Permanent reports whether retrying cannot succeed (the fault package's
// PermanentError interface).
func (e *OpError) Permanent() bool {
	return e.Code == protocol.CodeNotFound || e.Code == protocol.CodeBadRange || e.Code == protocol.CodeBadKey
}

// Unwrap exposes the matching sentinel (ErrNotFound, ErrBadRange, ErrBadKey) or the
// underlying transport error, so errors.Is keeps working across the wire.
func (e *OpError) Unwrap() error {
	switch {
	case e.Err != nil:
		return e.Err
	case e.Code == protocol.CodeNotFound:
		return ErrNotFound
	case e.Code == protocol.CodeBadRange:
		return ErrBadRange
	case e.Code == protocol.CodeBadKey:
		return ErrBadKey
	}
	return nil
}

// classify maps a backend error to its wire code.
func classify(err error) int {
	switch {
	case err == nil:
		return protocol.CodeOK
	case errors.Is(err, ErrNotFound):
		return protocol.CodeNotFound
	case errors.Is(err, ErrBadRange):
		return protocol.CodeBadRange
	case errors.Is(err, ErrBadKey):
		return protocol.CodeBadKey
	}
	return protocol.CodeTransient
}

// opError builds the client-side error for a server response.
func opError(op, key, msg string, code int) *OpError {
	if code == protocol.CodeOK {
		// An old or minimal server reported an error without classifying
		// it; treat it as transient so retries still happen.
		code = protocol.CodeTransient
	}
	return &OpError{Op: op, Key: key, Code: code, Msg: msg}
}

// transportError wraps a connection-level failure as a transient OpError.
func transportError(op, key string, err error) *OpError {
	return &OpError{Op: op, Key: key, Code: protocol.CodeTransient, Msg: err.Error(), Err: err}
}

package head

import "repro/internal/core"

// The external head_test package drives a real head with the same
// conservation helpers the internal tests use.
var (
	JobVal     = jobVal
	EncodeSum  = encodeSum
	Poll       = poll
	CommitJobs = commitJobs
)

type SumReducer = sumReducer

// SumTotal reads a sumReducer object's total.
func SumTotal(obj core.Object) uint64 { return obj.(*sumObj).total }

// Retained reports how many queries the head still holds: entries in its
// query map and in its admission order.
func (h *Head) Retained() (queries, order int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.queries), len(h.order)
}

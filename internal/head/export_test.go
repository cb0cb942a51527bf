package head

import "repro/internal/core"

// The external head_test package drives a real head with the same
// conservation helpers the internal tests use.
var (
	JobVal    = jobVal
	EncodeSum = encodeSum
)

type SumReducer = sumReducer

// SumTotal reads a sumReducer object's total.
func SumTotal(obj core.Object) uint64 { return obj.(*sumObj).total }

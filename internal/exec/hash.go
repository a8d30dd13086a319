package exec

import (
	"tqp/internal/physical"
	"tqp/internal/relation"
	"tqp/internal/schema"
)

// identityIdx returns [0, 1, ..., n).
func identityIdx(n int) []int { return seqRows(nil, 0, n) }

// groupsContiguous reports whether tuples equal on idx are guaranteed to be
// adjacent in a list sorted by ord. The decision lives in package physical
// so the engine, the cost model and the stratum meter agree; the empty-idx
// case (grouping on no columns: one global group, trivially contiguous) is
// engine-local because physical treats "no keys" as "no merge variant".
func groupsContiguous(ord relation.OrderSpec, s *schema.Schema, idx []int) bool {
	if len(idx) == 0 {
		return true
	}
	return physical.GroupsContiguous(ord, s, idx)
}

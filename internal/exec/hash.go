package exec

import (
	"tqp/internal/physical"
	"tqp/internal/relation"
	"tqp/internal/schema"
)

// hashGroups assigns dense group ids to tuples equal on a key-column set.
// Collisions are resolved by chaining on the canonical tuple hash and every
// candidate is confirmed with value equality, so distinct keys never share a
// group. Group ids are allocated in first-occurrence order, which is the
// iteration order the reference evaluator's string-keyed maps expose.
type hashGroups struct {
	idx     []int
	buckets map[uint64][]int
	reps    []relation.Tuple
}

func newHashGroups(idx []int, sizeHint int) *hashGroups {
	return &hashGroups{idx: idx, buckets: make(map[uint64][]int, sizeHint)}
}

// groupOf returns t's group id, allocating a fresh one (fresh=true) for the
// first tuple with a given key.
func (g *hashGroups) groupOf(t relation.Tuple) (id int, fresh bool) {
	h := t.HashOn(g.idx)
	for _, gid := range g.buckets[h] {
		if g.reps[gid].EqualOn(g.idx, t) {
			return gid, false
		}
	}
	id = len(g.reps)
	g.reps = append(g.reps, t)
	g.buckets[h] = append(g.buckets[h], id)
	return id, true
}

// lookup finds the group whose key equals t restricted to probeIdx —
// position k of probeIdx pairs with position k of the table's key — or -1.
func (g *hashGroups) lookup(t relation.Tuple, probeIdx []int) int {
	h := t.HashOn(probeIdx)
	for _, gid := range g.buckets[h] {
		rep := g.reps[gid]
		match := true
		for k, pj := range probeIdx {
			if !t[pj].Equal(rep[g.idx[k]]) {
				match = false
				break
			}
		}
		if match {
			return gid
		}
	}
	return -1
}

// size returns the number of distinct groups seen.
func (g *hashGroups) size() int { return len(g.reps) }

// identityIdx returns [0, 1, ..., n).
func identityIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// valueIdx returns the positions of a temporal schema's non-time attributes:
// the value-equivalence columns of Section 2.1 (shared with the planner's
// decision procedure in package physical).
func valueIdx(s *schema.Schema) []int { return physical.ValueIdx(s) }

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

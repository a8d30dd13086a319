// Package physical decides, per logical operator, which physical variant of
// the exec engine applies given the delivered orders of the operator's
// inputs: merge vs hash joins, streaming sort-based vs hash grouping, and
// sort elision. It is the single decision procedure shared by the exec
// engine (which decides with the run-time delivered orders of its compiled
// pipelines), the cost model (which decides with the statically inferred
// orders of props.State), the stratum executor's metering, and the tqplan
// display — so the engine and the model cannot drift on when the
// order-exploiting variants fire.
//
// The soundness of every decision rests on Table 1's order propagation: an
// input's OrderSpec is a list invariant, so a prefix of it covering exactly
// an operator's grouping attributes proves the operator's groups contiguous
// (GroupsContiguous), and a sort spec that is a prefix of the delivered
// order proves the sort a no-op (Table 1's special case).
package physical

import (
	"tqp/internal/algebra"
	"tqp/internal/expr"
	"tqp/internal/props"
	"tqp/internal/relation"
	"tqp/internal/schema"
)

// Algo names a physical operator variant for display and tests.
type Algo string

// Physical operator variants.
const (
	AlgoSort       Algo = "merge-sort"  // run-forming external merge sort
	AlgoSortElided Algo = "sort~elided" // input already delivers the order
	AlgoMergeJoin  Algo = "merge-join"  // both inputs ordered on the equi-keys
	AlgoHashJoin   Algo = "hash-join"   // build/probe on the equi-keys
	AlgoNestedLoop Algo = "nested-loop" // no usable equi-keys
	AlgoMergeDedup Algo = "merge-rdup"  // adjacent-compare dedup on a total order
	AlgoHashDedup  Algo = "hash-rdup"   // hash-set dedup
	AlgoMergeDiff  Algo = "merge-diff"  // both inputs share a covering order
	AlgoHashDiff   Algo = "hash-diff"   // hash multiplicity counters
	AlgoMergeUnion Algo = "merge-union" // both inputs share a covering order
	AlgoHashUnion  Algo = "hash-union"  // hash multiplicity counters
	AlgoMergeGroup Algo = "merge-group" // groups contiguous under the input order
	AlgoHashGroup  Algo = "hash-group"  // hash value/group partitioning
	AlgoStream     Algo = "stream"      // order-indifferent tuple-at-a-time op
	AlgoHashPart   Algo = "hash-part"   // two-sided hash partitioning (\ᵀ, ∪ᵀ)
)

// Decision is the chosen physical variant for one node.
type Decision struct {
	// Algo is the variant for display.
	Algo Algo
	// Merge reports that the order-exploiting merge/sort-based variant
	// applies (cheaper than the hash variant under the cost model).
	Merge bool
	// SortElided reports that a sort node is a physical no-op because its
	// input already delivers an order the requested spec is a prefix of.
	SortElided bool
}

// Ordered reports that the decision exploits a delivered input order.
func (d Decision) Ordered() bool { return d.Merge || d.SortElided }

// Decide picks the physical variant for n given the delivered orders of its
// children. Child schemas are derived from the plan; nodes whose schemas do
// not validate get the zero decision (the engine will surface the error).
func Decide(n algebra.Node, childOrders []relation.OrderSpec) Decision {
	ch := n.Children()
	var buf [2]*schema.Schema
	cs := buf[:len(ch)]
	for i, c := range ch {
		s, err := c.Schema()
		if err != nil {
			return Decision{}
		}
		cs[i] = s
	}
	ord := func(i int) relation.OrderSpec {
		if i < len(childOrders) {
			return childOrders[i]
		}
		return nil
	}

	switch node := n.(type) {
	case *algebra.Sort:
		if node.Spec.IsPrefixOf(ord(0)) {
			return Decision{Algo: AlgoSortElided, SortElided: true}
		}
		return Decision{Algo: AlgoSort}
	case *algebra.Join:
		out, err := n.Schema()
		if err != nil {
			return Decision{}
		}
		lw, rw := cs[0].Len(), cs[1].Len()
		lidx, ridx, _ := EquiKeys(node.P, out, lw, rw)
		if len(lidx) == 0 {
			return Decision{Algo: AlgoNestedLoop}
		}
		if _, ok := MergeJoinKeys(ord(0), ord(1), cs[0], cs[1], lidx, ridx); ok {
			return Decision{Algo: AlgoMergeJoin, Merge: true}
		}
		return Decision{Algo: AlgoHashJoin}
	case *algebra.Aggregate:
		gidx := make([]int, len(node.GroupBy))
		for i, g := range node.GroupBy {
			gidx[i] = cs[0].Index(g)
			if gidx[i] < 0 {
				// Unknown grouping attribute: the node is invalid and the
				// engine will surface the error; keep the zero decision.
				return Decision{}
			}
		}
		if GroupsContiguous(ord(0), cs[0], gidx) {
			return Decision{Algo: AlgoMergeGroup, Merge: true}
		}
		return Decision{Algo: AlgoHashGroup}
	}

	switch n.Op() {
	case algebra.OpRdup:
		if GroupsContiguous(ord(0), cs[0], identityIdx(cs[0].Len())) {
			return Decision{Algo: AlgoMergeDedup, Merge: true}
		}
		return Decision{Algo: AlgoHashDedup}
	case algebra.OpDiff:
		if _, ok := AlignedTotalOrder(ord(0), ord(1), cs[0]); ok {
			return Decision{Algo: AlgoMergeDiff, Merge: true}
		}
		return Decision{Algo: AlgoHashDiff}
	case algebra.OpUnion:
		if _, ok := AlignedTotalOrder(ord(0), ord(1), cs[0]); ok {
			return Decision{Algo: AlgoMergeUnion, Merge: true}
		}
		return Decision{Algo: AlgoHashUnion}
	case algebra.OpTRdup, algebra.OpCoal:
		if GroupsContiguous(ord(0), cs[0], ValueIdx(cs[0])) {
			return Decision{Algo: AlgoMergeGroup, Merge: true}
		}
		return Decision{Algo: AlgoHashGroup}
	case algebra.OpTDiff, algebra.OpTUnion:
		return Decision{Algo: AlgoHashPart}
	case algebra.OpProduct, algebra.OpTProduct:
		return Decision{Algo: AlgoNestedLoop}
	case algebra.OpSelect, algebra.OpProject, algebra.OpUnionAll:
		return Decision{Algo: AlgoStream}
	default:
		return Decision{}
	}
}

// Annotate decides the physical variant of every node of a plan from the
// statically inferred delivered orders (props.State.Order). This is the
// compile-time view the cost model prices and tqplan renders; the engine
// makes the same decisions at build time from its run-time orders, which
// coincide whenever the catalog's BaseInfo is truthful.
func Annotate(plan algebra.Node) (map[algebra.Node]Decision, error) {
	st, err := props.InferStates(plan)
	if err != nil {
		return nil, err
	}
	out := make(map[algebra.Node]Decision)
	var walk func(n algebra.Node)
	walk = func(n algebra.Node) {
		ch := n.Children()
		orders := make([]relation.OrderSpec, len(ch))
		for i, c := range ch {
			walk(c)
			orders[i] = st[c].Order
		}
		out[n] = Decide(n, orders)
	}
	walk(plan)
	return out, nil
}

// Summary counts the order-exploiting decisions of an annotated plan.
type Summary struct {
	SortsElided int
	MergeOps    int
}

// Summarize tallies an Annotate result.
func Summarize(dec map[algebra.Node]Decision) Summary {
	var s Summary
	for _, d := range dec {
		if d.SortElided {
			s.SortsElided++
		}
		if d.Merge {
			s.MergeOps++
		}
	}
	return s
}

// GroupsContiguous reports whether tuples equal on idx are guaranteed to be
// adjacent in a list sorted by ord: some prefix of ord covers exactly the
// idx attribute set. When true the grouping operators run without a hash
// table in a single comparison pass.
func GroupsContiguous(ord relation.OrderSpec, s *schema.Schema, idx []int) bool {
	_, ok := CoveringPrefix(ord, s, idx)
	return ok
}

// CoveringPrefix returns the shortest prefix of ord that mentions only —
// and all of — the attributes at idx. Equality under such a prefix is
// equality on every idx attribute, and a list sorted by ord keeps tuples
// equal on idx contiguous. Repeated keys in ord are admitted (sort_{A,A} is
// valid) and count once.
func CoveringPrefix(ord relation.OrderSpec, s *schema.Schema, idx []int) (relation.OrderSpec, bool) {
	if len(idx) == 0 {
		return nil, false
	}
	want := make(map[string]bool, len(idx))
	for _, j := range idx {
		if j < 0 || j >= s.Len() {
			return nil, false
		}
		want[s.At(j).Name] = true
	}
	covered := 0
	seen := make(map[string]bool, len(want))
	for i, k := range ord {
		if !want[k.Attr] {
			return nil, false
		}
		if !seen[k.Attr] {
			seen[k.Attr] = true
			covered++
		}
		if covered == len(want) {
			return ord[:i+1], true
		}
	}
	return nil, false
}

// AlignedTotalOrder reports that both inputs of a schema-preserving binary
// multiset operation (\, ∪) deliver one shared order covering every
// attribute — so full-tuple equality groups are contiguous on both sides
// and arrive in the same sequence, admitting a two-pointer merge. The
// returned spec is the shared covering prefix.
func AlignedTotalOrder(l, r relation.OrderSpec, s *schema.Schema) (relation.OrderSpec, bool) {
	idx := identityIdx(s.Len())
	lp, ok := CoveringPrefix(l, s, idx)
	if !ok {
		return nil, false
	}
	rp, ok := CoveringPrefix(r, s, idx)
	if !ok || !lp.Equal(rp) {
		return nil, false
	}
	return lp, true
}

// JoinKeys is the aligned comparison sequence of a merge join: position k
// compares left column L[k] against right column R[k] under direction
// Dirs[k]. Tuples equal under the whole sequence are equal on every
// equi-key pair.
type JoinKeys struct {
	L, R []int
	Dirs []relation.Direction
}

// Compare orders a left tuple against a right tuple under the key sequence.
func (k JoinKeys) Compare(lt, rt relation.Tuple) int {
	for i := range k.L {
		c := lt[k.L[i]].Compare(rt[k.R[i]])
		if k.Dirs[i] == relation.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// MergeJoinKeys reports whether a merge join applies: both inputs deliver
// orders whose covering prefixes span exactly their side of the equi-key
// pairing, positionally aligned with equal directions. The key pairing must
// be functional in both directions (each left column equated with exactly
// one right column and vice versa); a predicate equating one column with
// two different ones falls back to the hash join.
func MergeJoinKeys(lOrd, rOrd relation.OrderSpec, ls, rs *schema.Schema, lidx, ridx []int) (JoinKeys, bool) {
	l2r := make(map[int]int, len(lidx))
	r2l := make(map[int]int, len(ridx))
	for m := range lidx {
		if j, dup := l2r[lidx[m]]; dup && j != ridx[m] {
			return JoinKeys{}, false
		}
		if i, dup := r2l[ridx[m]]; dup && i != lidx[m] {
			return JoinKeys{}, false
		}
		l2r[lidx[m]] = ridx[m]
		r2l[ridx[m]] = lidx[m]
	}
	lp, ok := CoveringPrefix(lOrd, ls, lidx)
	if !ok {
		return JoinKeys{}, false
	}
	rp, ok := CoveringPrefix(rOrd, rs, ridx)
	if !ok {
		return JoinKeys{}, false
	}
	ldist := distinctKeys(lp)
	rdist := distinctKeys(rp)
	if len(ldist) != len(rdist) {
		return JoinKeys{}, false
	}
	keys := JoinKeys{}
	for k := range ldist {
		li := ls.Index(ldist[k].Attr)
		ri, ok := l2r[li]
		if !ok {
			return JoinKeys{}, false
		}
		if rs.At(ri).Name != rdist[k].Attr || ldist[k].Dir != rdist[k].Dir {
			return JoinKeys{}, false
		}
		keys.L = append(keys.L, li)
		keys.R = append(keys.R, ri)
		keys.Dirs = append(keys.Dirs, ldist[k].Dir)
	}
	return keys, true
}

// distinctKeys drops repeated attributes from a spec, keeping first
// occurrences (a repeat constrains nothing further).
func distinctKeys(o relation.OrderSpec) relation.OrderSpec {
	seen := make(map[string]bool, len(o))
	var out relation.OrderSpec
	for _, k := range o {
		if seen[k.Attr] {
			continue
		}
		seen[k.Attr] = true
		out = append(out, k)
	}
	return out
}

// EquiKeys splits a (possibly fused) product predicate into hashable
// equality pairs — conjuncts of the form leftCol = rightCol over the
// product's output schema — and the residual predicate evaluated per
// candidate pair. Columns at or beyond lw+rw (a temporal product's fresh
// intersection period) cannot be keyed and stay residual.
func EquiKeys(p expr.Pred, out *schema.Schema, lw, rw int) (lidx, ridx []int, residual expr.Pred) {
	if p == nil {
		return nil, nil, nil
	}
	var rest []expr.Pred
	for _, c := range expr.SplitConj(p) {
		if cmp, ok := c.(expr.Cmp); ok && cmp.Op == expr.Eq {
			lc, lok := cmp.L.(expr.Col)
			rc, rok := cmp.R.(expr.Col)
			if lok && rok {
				i, j := out.Index(lc.Name), out.Index(rc.Name)
				switch {
				case i >= 0 && i < lw && j >= lw && j < lw+rw:
					lidx = append(lidx, i)
					ridx = append(ridx, j-lw)
					continue
				case j >= 0 && j < lw && i >= lw && i < lw+rw:
					lidx = append(lidx, j)
					ridx = append(ridx, i-lw)
					continue
				}
			}
		}
		rest = append(rest, c)
	}
	if len(lidx) == 0 {
		return nil, nil, p
	}
	if len(rest) == 0 {
		return lidx, ridx, nil
	}
	return lidx, ridx, expr.ConjList(rest)
}

// ValueIdx returns the positions of a temporal schema's non-time
// attributes: the value-equivalence columns of Section 2.1.
func ValueIdx(s *schema.Schema) []int {
	t1, t2 := s.TimeIndices()
	out := make([]int, 0, s.Len())
	for i := 0; i < s.Len(); i++ {
		if i == t1 || i == t2 {
			continue
		}
		out = append(out, i)
	}
	return out
}

func identityIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

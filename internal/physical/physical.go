// Package physical is the one place a physical variant of the exec engine
// is chosen. Decide picks, per logical operator, the variant the engine
// compiles from the delivered states of the operator's inputs — their
// orders and Table 1's duplicate claims (props.State) — and from the
// engine's Shape (width and memory budget): merge vs hash joins, merge vs
// hash \ and ∪, adjacent-compare vs hash dedup, contiguous vs hashed
// grouping, group-at-a-time streaming vs the exchange driver, sort elision,
// and \ᵀ's union subtraction over a snapshot-distinct left. The exec
// engine compiles exactly the decision it returns (over the states its
// stages deliver at run time) and reports it per node to the stratum's
// meter; the cost model decides over the statically inferred states, and
// EXPLAIN ANALYZE and tqplan render Annotate's decisions for their engine's
// shape. Where the catalog's BaseInfo is truthful the two states agree —
// a stratum region's leaf, a transferred DBMS result, declares the static
// state of its TS — so the model prices what the engine runs.
//
// The soundness of every order decision rests on Table 1's order
// propagation: an input's OrderSpec is a list invariant, so a prefix of it
// covering exactly an operator's grouping attributes proves the operator's
// groups contiguous (CoveringPrefix), and a sort spec that is a prefix of
// the delivered order proves the sort a no-op (Table 1's special case).
// The subtraction rests on Table 1's Duplicates column: a snapshot-distinct
// left argument has at most one row covering any instant of a value group,
// so \ᵀ's max(cₗ − cᵣ, 0) is each left period minus the union of the
// right's. Coalesced proves nothing here: coalescing merges adjacent
// periods only, so a coalesced relation may still hold overlapping
// value-equivalent periods.
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
	AlgoSort       Algo = "merge-sort"  // stable sort (run-forming and spilling under a budget)
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
	AlgoMinusUnion Algo = "minus-union" // \ᵀ, snapshot-distinct left: each period minus the right's union
)

// Shape is what the engine's choice depends on besides delivered orders.
// The zero Shape is the sequential, unbudgeted engine (and the reference
// evaluator, which has no variants to choose).
type Shape struct {
	// Parallel is a worker pool wider than one: keyed operators run W-way
	// through the exchange driver, joins split their probe side and sorts
	// form their runs on the pool.
	Parallel bool
	// Budgeted is a memory budget: blocking operators account their state
	// and may spill it.
	Budgeted bool
}

// ShapeOf is the shape of an engine with the given worker count and memory
// budget in bytes (0 for none).
func ShapeOf(parallelism int, memoryBudget int64) Shape {
	return Shape{Parallel: parallelism > 1, Budgeted: memoryBudget > 0}
}

// Variant is the chosen physical variant of one node: what the engine
// reports it compiled, what the cost model and the stratum meter price,
// and what EXPLAIN ANALYZE and tqplan render.
type Variant struct {
	// Algo is the variant for display.
	Algo Algo
	// Merge reports an order-exploiting variant: a merge join, a merge \
	// or ∪, an adjacent-compare dedup, or grouping that cuts contiguous
	// groups instead of hashing. Without Exchange, a Merge grouping
	// operator streams group-at-a-time ahead of the exchange driver.
	Merge bool
	// SortElided reports that a sort node is a physical no-op because its
	// input already delivers an order the requested spec is a prefix of.
	SortElided bool
	// Contiguous reports that the (left) input's delivered order keeps the
	// Keys groups adjacent: those of a one-sided keyed operator (trivially so
	// with no keys), whose driver then splits whole-group ranges across the
	// pool, or the left's value groups of \ᵀ and ∪ᵀ, whose bodies then cut
	// the left into runs and probe the right's groups once per run instead
	// of hashing every left row.
	Contiguous bool
	// Exchange reports that the node's work divides across the worker
	// pool (the parallel cost shape).
	Exchange bool
	// Spills reports that, under the budget, the node's working state is
	// accounted against an operator share and spills past it (the spill
	// cost shape).
	Spills bool
}

// Decision is a node's Variant with what the engine's builder compiles it
// from.
type Decision struct {
	Variant
	// Keys are the key columns: the left equi-join columns, the grouping
	// columns, the value-equivalence columns, or every column. RKeys are the
	// right side's (the right equi-join columns, or Keys again for \, ∪,
	// \ᵀ and ∪ᵀ), Residual the join predicate left over the equi-keys.
	Keys, RKeys []int
	Residual    expr.Pred
	// MergeKeys is the aligned comparison sequence of a merge join or an
	// adjacent-compare dedup; MergeSpec the shared covering order of a
	// merge \ or ∪.
	MergeKeys JoinKeys
	MergeSpec relation.OrderSpec
}

// Decide picks the physical variant the engine of shape sh compiles for n,
// given the delivered states of its children in child order (their orders
// and duplicate claims are read). Child schemas are derived from the plan;
// nodes whose schemas do not validate get the zero decision (the engine
// will surface the error).
func Decide(n algebra.Node, children []props.State, sh Shape) Decision {
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
		if i < len(children) {
			return children[i].Order
		}
		return nil
	}
	// The merge variants of the two-sided operators materialize a whole
	// side, so only the sequential unbudgeted engine compiles them: a
	// budget or a pool partitions that side instead.
	seq := !sh.Parallel && !sh.Budgeted

	switch node := n.(type) {
	case *algebra.Sort:
		if node.Spec.IsPrefixOf(ord(0)) {
			return Decision{Variant: Variant{Algo: AlgoSortElided, SortElided: true}}
		}
		return Decision{Variant: Variant{Algo: AlgoSort, Exchange: sh.Parallel, Spills: sh.Budgeted}}
	case *algebra.Join:
		out, err := n.Schema()
		if err != nil {
			return Decision{}
		}
		lidx, ridx, residual := EquiKeys(node.P, out, cs[0].Len(), cs[1].Len())
		d := joined(sh)
		d.Keys, d.RKeys, d.Residual = lidx, ridx, residual
		if len(lidx) == 0 {
			return d
		}
		d.Algo = AlgoHashJoin
		if seq {
			if keys, ok := mergeJoinKeys(ord(0), ord(1), cs[0], cs[1], lidx, ridx); ok {
				d.Algo, d.Merge, d.MergeKeys = AlgoMergeJoin, true, keys
			}
		}
		return d
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
		return grouped(gidx, ord(0), cs[0], sh, true)
	}

	switch n.Op() {
	case algebra.OpRdup:
		d := grouped(identityIdx(cs[0].Len()), ord(0), cs[0], sh, false)
		d.Algo = AlgoHashDedup
		if d.Merge {
			d.Algo = AlgoMergeDedup
			d.MergeKeys = JoinKeys{L: d.Keys, R: d.Keys, Dirs: make([]relation.Direction, len(d.Keys))}
		}
		return d
	case algebra.OpDiff, algebra.OpUnion:
		merge, hash := AlgoMergeDiff, AlgoHashDiff
		if n.Op() == algebra.OpUnion {
			merge, hash = AlgoMergeUnion, AlgoHashUnion
		}
		idx := identityIdx(cs[0].Len())
		if seq {
			if spec, ok := alignedTotalOrder(ord(0), ord(1), cs[0], idx); ok {
				return Decision{Variant: Variant{Algo: merge, Merge: true}, MergeSpec: spec}
			}
		}
		d := keyed(idx, sh)
		d.Algo, d.RKeys = hash, idx
		return d
	case algebra.OpTRdup, algebra.OpCoal:
		return grouped(ValueIdx(cs[0]), ord(0), cs[0], sh, true)
	case algebra.OpTDiff, algebra.OpTUnion:
		vidx := ValueIdx(cs[0])
		d := keyed(vidx, sh)
		d.Algo, d.RKeys = AlgoHashPart, vidx
		_, d.Contiguous = CoveringPrefix(ord(0), cs[0], vidx)
		if n.Op() == algebra.OpTDiff && len(children) > 0 && children[0].SnapshotDistinct {
			d.Algo = AlgoMinusUnion
		}
		return d
	case algebra.OpProduct, algebra.OpTProduct:
		return joined(sh)
	case algebra.OpSelect, algebra.OpProject, algebra.OpUnionAll:
		return Decision{Variant: Variant{Algo: AlgoStream}}
	default:
		return Decision{}
	}
}

// joined is the decision of a join or product before its keys: the nested
// loop, which — like every join — splits its probe side across the pool
// and, under a budget, becomes the hybrid hash join that spills.
func joined(sh Shape) Decision {
	return Decision{Variant: Variant{Algo: AlgoNestedLoop, Exchange: sh.Parallel, Spills: sh.Budgeted}}
}

// keyed is the exchange driver's decision for an operator keyed on idx: the
// pool partitions it and the budget spills it, given keys to partition on.
func keyed(idx []int, sh Shape) Decision {
	return Decision{Variant: Variant{Exchange: sh.Parallel && len(idx) > 0, Spills: sh.Budgeted && len(idx) > 0}, Keys: idx}
}

// grouped decides a one-sided keyed operator over key columns idx: rdup
// (adjacentBody false: its partition body always hashes), 𝒢, 𝒢ᵀ, rdupᵀ and
// coalᵀ (adjacentBody true: their bodies cut contiguous groups instead). An
// input whose order keeps the groups contiguous streams group-at-a-time —
// one group of state, already memory-bounded, so the budgeted engine prefers
// it over partitioning — except under plain parallelism, where the driver's
// range exchange over the same contiguity wins.
func grouped(idx []int, ord relation.OrderSpec, s *schema.Schema, sh Shape, adjacentBody bool) Decision {
	_, contiguous := CoveringPrefix(ord, s, idx) // false with no keys
	stream := contiguous && !(sh.Parallel && !sh.Budgeted)
	d := Decision{Keys: idx}
	if !stream {
		d = keyed(idx, sh)
	}
	// No keys is one global group: trivially contiguous.
	d.Algo, d.Contiguous = AlgoHashGroup, contiguous || len(idx) == 0
	if stream || (adjacentBody && contiguous) {
		d.Algo, d.Merge = AlgoMergeGroup, true
	}
	return d
}

// Annotate decides the physical variant of every node of a plan for an
// engine of shape sh from the statically inferred delivered states
// (props.State) — the view the cost model prices and EXPLAIN ANALYZE and
// tqplan render. The engine makes the same decisions at build time from its
// run-time states, which agree whenever the catalog's BaseInfo is truthful.
func Annotate(plan algebra.Node, sh Shape) (map[algebra.Node]Variant, error) {
	st, err := props.InferStates(plan)
	if err != nil {
		return nil, err
	}
	out := make(map[algebra.Node]Variant)
	var walk func(n algebra.Node)
	walk = func(n algebra.Node) {
		ch := n.Children()
		states := make([]props.State, len(ch))
		for i, c := range ch {
			walk(c)
			states[i] = st[c]
		}
		out[n] = Decide(n, states, sh).Variant
	}
	walk(plan)
	return out, nil
}

// Summary counts an annotated plan's decisions as the engine's variant
// counters (exec.Stats) count what it compiled.
type Summary struct {
	SortsElided int // sorts compiled away
	Sorts       int // sorts physically performed
	MergeJoins  int // merge joins
	MergeOps    int // every other Merge decision
}

// Summarize tallies an Annotate result.
func Summarize(dec map[algebra.Node]Variant) Summary {
	var s Summary
	for _, d := range dec {
		switch {
		case d.SortElided:
			s.SortsElided++
		case d.Algo == AlgoSort:
			s.Sorts++
		case d.Algo == AlgoMergeJoin:
			s.MergeJoins++
		case d.Merge:
			s.MergeOps++
		}
	}
	return s
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

// alignedTotalOrder reports that both inputs of a schema-preserving binary
// multiset operation (\, ∪) over all columns idx deliver one shared order
// covering every attribute — so full-tuple equality groups are contiguous
// on both sides and arrive in the same sequence, admitting a two-pointer
// merge. The returned spec is the shared covering prefix.
func alignedTotalOrder(l, r relation.OrderSpec, s *schema.Schema, idx []int) (relation.OrderSpec, bool) {
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

// mergeJoinKeys reports whether a merge join applies: both inputs deliver
// orders whose covering prefixes span exactly their side of the equi-key
// pairing, positionally aligned with equal directions. The key pairing must
// be functional in both directions (each left column equated with exactly
// one right column and vice versa); a predicate equating one column with
// two different ones falls back to the hash join.
func mergeJoinKeys(lOrd, rOrd relation.OrderSpec, ls, rs *schema.Schema, lidx, ridx []int) (JoinKeys, bool) {
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
// attributes: the value-equivalence columns of Section 2.1. Like every key
// column list a decision carries, the result is read-only.
func ValueIdx(s *schema.Schema) []int {
	t1, t2 := s.TimeIndices()
	n := s.Len()
	switch {
	case t1 < 0:
		return identityIdx(n)
	case min(t1, t2) == n-2:
		// The usual layout: the period trails the value columns.
		return identityIdx(n - 2)
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if i == t1 || i == t2 {
			continue
		}
		out = append(out, i)
	}
	return out
}

// ascending is [0, 1, …), shared by identityIdx: key column lists are only
// read, and a slice of it is capped at its length, so an append copies.
var ascending = func() []int {
	out := make([]int, 64)
	for i := range out {
		out[i] = i
	}
	return out
}()

// identityIdx returns [0, 1, ..., n), read-only.
func identityIdx(n int) []int {
	if n <= len(ascending) {
		return ascending[:n:n]
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

package props

import (
	"fmt"

	"tqp/internal/algebra"
	"tqp/internal/equiv"
	"tqp/internal/expr"
	"tqp/internal/schema"
)

// Props carries the paper's three Boolean operation properties (Table 2)
// for one node, together with the underlying required-equivalence τ they
// project from.
type Props struct {
	// Tau is the weakest equivalence type a replacement of this subtree
	// must preserve.
	Tau equiv.Type
	// OrderRequired: the result of the operation must preserve some order.
	OrderRequired bool
	// DuplicatesRelevant: the operation cannot arbitrarily add or remove
	// regular duplicates.
	DuplicatesRelevant bool
	// PeriodPreserving: the operation cannot replace its result with a
	// snapshot-equivalent one.
	PeriodPreserving bool
}

// Vector renders the properties in the bracketed style of Figure 6:
// [OrderRequired DuplicatesRelevant PeriodPreserving], T for true and - for
// false.
func (p Props) Vector() string {
	b := func(v bool) byte {
		if v {
			return 'T'
		}
		return '-'
	}
	return fmt.Sprintf("[%c %c %c]", b(p.OrderRequired), b(p.DuplicatesRelevant), b(p.PeriodPreserving))
}

func fromTau(t equiv.Type) Props {
	return Props{
		Tau:                t,
		OrderRequired:      t == equiv.List || t == equiv.SnapshotList,
		DuplicatesRelevant: t == equiv.List || t == equiv.Multiset || t == equiv.SnapshotList || t == equiv.SnapshotMultiset,
		PeriodPreserving:   t == equiv.List || t == equiv.Multiset || t == equiv.Set,
	}
}

// PropsMap maps every node of a plan to its properties.
type PropsMap map[algebra.Node]Props

// Infer computes the properties of every node for a query with the given
// result type (Definition 5.1). It is re-run after each rewrite — the
// paper adjusts properties locally, which is an optimization of the same
// computation.
func Infer(root algebra.Node, rt equiv.ResultType, st States) (PropsMap, error) {
	if st == nil {
		var err error
		st, err = InferStates(root)
		if err != nil {
			return nil, err
		}
	}
	pm := make(PropsMap)
	propagate(root, rt.Guard(), st, pm)
	return pm, nil
}

// propagate assigns τ to n and derives each child's τ per the operation's
// semantics; each case below states its derivation.
func propagate(n algebra.Node, tau equiv.Type, st States, pm PropsMap) {
	if old, ok := pm[n]; ok {
		// A node reachable twice (shared subtree) keeps the strongest
		// requirement.
		tau = strongest(old.Tau, tau)
	}
	pm[n] = fromTau(tau)
	ch := n.Children()
	if len(ch) == 0 {
		return
	}
	switch node := n.(type) {
	case *algebra.Select:
		// Time-free selections are snapshot-reducible; selections that
		// inspect T1/T2 pin the argument's exact periods.
		if expr.UsesTime(node.P) {
			propagate(ch[0], toNonSnapshot(tau), st, pm)
		} else {
			propagate(ch[0], tau, st, pm)
		}
		return
	case *algebra.Project:
		if periodTransparent(node) {
			propagate(ch[0], tau, st, pm)
		} else {
			// The projection reads periods as data or drops them; either
			// way the argument's exact periods matter.
			propagate(ch[0], toNonSnapshot(tau), st, pm)
		}
		return
	case *algebra.Sort:
		// Everything below a sort may be reordered freely (Section 5.2).
		propagate(ch[0], dropOrder(tau), st, pm)
		return
	case *algebra.Aggregate:
		propagate(ch[0], aggregateChildTau(tau, node), st, pm)
		return
	case *algebra.Join:
		// Join idioms behave as σ∘× — period values become data.
		l, r := toNonSnapshot(tau), toNonSnapshot(tau)
		propagate(ch[0], l, st, pm)
		propagate(ch[1], r, st, pm)
		return
	}

	switch n.Op() {
	case algebra.OpRdup:
		// rdup makes the argument's duplicate counts immaterial, but its
		// list output still follows the argument's list.
		if tau == equiv.List {
			propagate(ch[0], equiv.List, st, pm)
		} else {
			propagate(ch[0], dropDups(tau), st, pm)
		}
	case algebra.OpTRdup:
		// rdupᵀ is order-sensitive: its multiset output depends on the
		// argument's tuple distribution, so non-snapshot requirements
		// strengthen to ≡L. Its snapshots, however, are canonical — the
		// per-instant set of the argument — so snapshot requirements relax:
		// ≡SM (its output never has snapshot duplicates) becomes ≡SS below.
		switch tau {
		case equiv.SnapshotList:
			propagate(ch[0], equiv.SnapshotList, st, pm)
		case equiv.SnapshotMultiset, equiv.SnapshotSet:
			propagate(ch[0], equiv.SnapshotSet, st, pm)
		default:
			propagate(ch[0], equiv.List, st, pm)
		}
	case algebra.OpCoal:
		propagate(ch[0], coalChildTau(tau, st[ch[0]]), st, pm)
	case algebra.OpTDiff:
		leftTau, rightTau := tdiffChildTaus(tau, st[ch[0]])
		propagate(ch[0], leftTau, st, pm)
		propagate(ch[1], rightTau, st, pm)
	case algebra.OpDiff:
		// Conventional difference: the left side's duplicates always
		// matter (counts decide survival); the right side contributes only
		// its multiset.
		l := tau
		if l == equiv.Set {
			l = equiv.Multiset
		}
		propagate(ch[0], l, st, pm)
		propagate(ch[1], equiv.Multiset, st, pm)
	case algebra.OpProduct:
		propagate(ch[0], toNonSnapshot(tau), st, pm)
		propagate(ch[1], toNonSnapshot(tau), st, pm)
	case algebra.OpTProduct:
		// ×ᵀ retains its arguments' timestamps as data (1.T1 …), so even
		// snapshot requirements pin the arguments' exact periods.
		propagate(ch[0], toNonSnapshot(tau), st, pm)
		propagate(ch[1], toNonSnapshot(tau), st, pm)
	case algebra.OpUnionAll:
		// ⊔ is fully transparent: snapshots concatenate pointwise.
		propagate(ch[0], tau, st, pm)
		propagate(ch[1], tau, st, pm)
	case algebra.OpUnion:
		// ∪ compares whole tuples (periods as identity), so snapshot
		// requirements strengthen; set-level requirements survive (max ≥ 1
		// iff present in either side).
		u := toNonSnapshot(tau)
		propagate(ch[0], u, st, pm)
		propagate(ch[1], u, st, pm)
	case algebra.OpTUnion:
		l, r := tunionChildTau(tau), tunionChildTau(tau)
		propagate(ch[0], l, st, pm)
		propagate(ch[1], r, st, pm)
	case algebra.OpTransferS, algebra.OpTransferD:
		propagate(ch[0], tau, st, pm)
	default:
		// Unknown operator: require full list equivalence below.
		for _, c := range ch {
			propagate(c, equiv.List, st, pm)
		}
	}
}

// aggregateChildTau derives the argument requirement of 𝒢/𝒢ᵀ.
func aggregateChildTau(tau equiv.Type, n *algebra.Aggregate) equiv.Type {
	dupInsensitive := true
	for _, a := range n.Aggs {
		if !a.Func.DuplicateInsensitive() {
			dupInsensitive = false
		}
	}
	temporal := n.Op() == algebra.OpTAggregate
	switch tau {
	case equiv.List:
		return equiv.List
	case equiv.Multiset:
		return equiv.Multiset
	case equiv.Set:
		// COUNT/SUM/AVG read duplicate counts; MIN/MAX do not.
		if dupInsensitive {
			return equiv.Set
		}
		return equiv.Multiset
	case equiv.SnapshotList:
		// Output snapshot lists depend on global first-seen group order;
		// be conservative.
		return equiv.List
	case equiv.SnapshotMultiset:
		if temporal {
			return equiv.SnapshotMultiset
		}
		return equiv.Multiset
	default: // SnapshotSet
		if temporal && dupInsensitive {
			return equiv.SnapshotSet
		}
		if temporal {
			return equiv.SnapshotMultiset
		}
		return equiv.Multiset
	}
}

// coalChildTau derives the argument requirement of coalᵀ. When the
// argument is known to be snapshot-duplicate-free, coalescing returns a
// canonical relation for every snapshot-equivalent argument (Section 5.2),
// so multiset- and set-level requirements relax into their snapshot
// counterparts — the paper's "periods need not be preserved below
// coalescing".
func coalChildTau(tau equiv.Type, child State) equiv.Type {
	canonical := child.SnapshotDistinct
	switch tau {
	case equiv.List:
		return equiv.List
	case equiv.Multiset:
		if canonical {
			return equiv.SnapshotMultiset
		}
		return equiv.Multiset
	case equiv.Set:
		if canonical {
			return equiv.SnapshotSet
		}
		// Duplicate counts influence which tuples merge.
		return equiv.Multiset
	case equiv.SnapshotList:
		return equiv.List
	default: // SnapshotMultiset, SnapshotSet: coalescing never changes snapshots (C2)
		return tau
	}
}

// tdiffChildTaus derives the argument requirements of \ᵀ. The right
// argument only ever contributes per-instant counts — order and periods
// need not be preserved there, and with a snapshot-duplicate-free left
// argument only per-instant presence matters (the paper's Figure 2
// shading). The left argument keeps duplicate-level requirements because
// "temporal difference is sensitive to duplicates in its left argument".
func tdiffChildTaus(tau equiv.Type, left State) (equiv.Type, equiv.Type) {
	right := equiv.SnapshotMultiset
	if left.SnapshotDistinct {
		right = equiv.SnapshotSet
	}
	var l equiv.Type
	switch tau {
	case equiv.List:
		l = equiv.List
	case equiv.Multiset:
		if left.SnapshotDistinct {
			l = equiv.Multiset
		} else {
			// The output multiset depends on the left tuple distribution.
			l = equiv.List
		}
	case equiv.Set:
		if left.SnapshotDistinct {
			l = equiv.Multiset
		} else {
			l = equiv.List
		}
	case equiv.SnapshotList:
		l = equiv.SnapshotList
	case equiv.SnapshotMultiset:
		l = equiv.SnapshotMultiset
	default: // SnapshotSet
		l = equiv.SnapshotMultiset
	}
	return l, right
}

// tunionChildTau derives the argument requirements of ∪ᵀ.
func tunionChildTau(tau equiv.Type) equiv.Type {
	switch tau {
	case equiv.List, equiv.SnapshotList:
		return equiv.List
	case equiv.Multiset:
		return equiv.Multiset
	case equiv.Set:
		return equiv.Multiset
	default: // SnapshotMultiset, SnapshotSet
		return tau
	}
}

// periodTransparent reports whether a projection keeps the reserved time
// attributes as identity columns and mentions them nowhere else — the
// condition for π to be snapshot-reducible.
func periodTransparent(n *algebra.Project) bool {
	keepsT1, keepsT2 := false, false
	for _, it := range n.Items {
		col, isCol := it.Expr.(expr.Col)
		switch {
		case isCol && col.Name == schema.T1 && it.As == schema.T1:
			keepsT1 = true
		case isCol && col.Name == schema.T2 && it.As == schema.T2:
			keepsT2 = true
		case expr.UsesTime(it.Expr):
			return false
		case it.As == schema.T1 || it.As == schema.T2:
			// A non-time expression aliased to a reserved name fabricates
			// periods.
			return false
		}
	}
	return keepsT1 && keepsT2
}

func toNonSnapshot(t equiv.Type) equiv.Type {
	switch t {
	case equiv.SnapshotList:
		return equiv.List
	case equiv.SnapshotMultiset:
		return equiv.Multiset
	case equiv.SnapshotSet:
		return equiv.Set
	default:
		return t
	}
}

func dropOrder(t equiv.Type) equiv.Type {
	switch t {
	case equiv.List:
		return equiv.Multiset
	case equiv.SnapshotList:
		return equiv.SnapshotMultiset
	default:
		return t
	}
}

func dropDups(t equiv.Type) equiv.Type {
	switch t {
	case equiv.List, equiv.Multiset:
		return equiv.Set
	case equiv.SnapshotList, equiv.SnapshotMultiset:
		return equiv.SnapshotSet
	default:
		return t
	}
}

// strongest returns the stronger of two requirements under Theorem 3.1's
// lattice; incomparable pairs resolve to ≡L (always sufficient).
func strongest(a, b equiv.Type) equiv.Type {
	if a == b || a.Implies(b) {
		return a
	}
	if b.Implies(a) {
		return b
	}
	return equiv.List
}

// Applicable implements the guard of the enumeration algorithm (Figure 5):
// whether a transformation rule of equivalence type rt may be applied at a
// location whose participating operations have the given properties.
func Applicable(rt equiv.Type, ops []Props) bool {
	for _, p := range ops {
		switch rt {
		case equiv.List:
			// No restrictions.
		case equiv.Multiset:
			if p.OrderRequired {
				return false
			}
		case equiv.Set:
			if p.DuplicatesRelevant || p.OrderRequired {
				return false
			}
		case equiv.SnapshotList:
			if p.PeriodPreserving {
				return false
			}
		case equiv.SnapshotMultiset:
			if p.OrderRequired || p.PeriodPreserving {
				return false
			}
		case equiv.SnapshotSet:
			if p.DuplicatesRelevant || p.OrderRequired || p.PeriodPreserving {
				return false
			}
		}
	}
	return true
}

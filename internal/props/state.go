// Package props implements the static reasoning of Sections 5 and 6:
//
//   - State: bottom-up inference of what is statically known about each
//     node's result — its order (Table 1's Order column), duplicate
//     freeness, snapshot-duplicate freeness, and coalescing state. Rule
//     preconditions ("r does not have duplicates in snapshots", D2) consult
//     this state.
//
//   - Props: top-down inference of the paper's three Boolean operation
//     properties (Table 2) — OrderRequired, DuplicatesRelevant,
//     PeriodPreserving — which gate where transformation rules of each
//     equivalence type may be applied (Figure 5).
//
// Props are derived from a single per-node value τ: the weakest of the six
// equivalence types (Section 3) that a replacement of the subtree rooted at
// the node must preserve for the overall plan to stay ≡SQL-correct
// (Definition 5.1). The three booleans are projections of τ, which makes
// the Figure 5 guard exact:
//
//	OrderRequired      = τ ∈ {≡L, ≡SL}
//	DuplicatesRelevant = τ ∈ {≡L, ≡M, ≡SL, ≡SM}
//	PeriodPreserving   = τ ∈ {≡L, ≡M, ≡S}
//
// The full tech report [20] with the authors' formal property definitions
// is unavailable; the propagation rules here are re-derived and chosen to
// be sound (conservative) — TestStateSoundness checks every static claim
// against evaluated results — and they reproduce the paper's worked example
// (Figures 2 and 6) exactly.
package props

import (
	"fmt"

	"tqp/internal/algebra"
	"tqp/internal/expr"
	"tqp/internal/relation"
	"tqp/internal/schema"
)

// Site is where an operation executes in the layered architecture: in the
// stratum, or in the underlying conventional DBMS (below a TS transfer).
type Site uint8

// Execution sites.
const (
	Stratum Site = iota
	DBMS
)

// String renders the site.
func (s Site) String() string {
	if s == DBMS {
		return "dbms"
	}
	return "stratum"
}

// State is what is statically known about one node's result relation.
type State struct {
	// Schema is the node's output schema.
	Schema *schema.Schema
	// Order is the statically guaranteed order of the result (Table 1).
	// For operations executed inside the DBMS it is empty unless the
	// operation is itself a sort: the DBMS gives no order guarantees
	// (Section 4.5), sort being the only exception.
	Order relation.OrderSpec
	// Distinct reports that the result can have no regular duplicates.
	Distinct bool
	// SnapshotDistinct reports that no snapshot of the result can have
	// duplicates; for snapshot relations it coincides with Distinct.
	SnapshotDistinct bool
	// Coalesced reports that the result is coalesced (temporal only).
	Coalesced bool
	// Site is where the operation executes.
	Site Site
}

// States maps every node of one plan to its state. Nodes are compared by
// identity, which is stable because plans are immutable trees.
type States map[algebra.Node]State

// InferStates computes the static state of every node in the plan.
func InferStates(root algebra.Node) (States, error) {
	st := make(States)
	sites := make(map[algebra.Node]Site)
	inferSites(root, Stratum, sites)
	if _, err := inferState(root, st, sites); err != nil {
		return nil, err
	}
	return st, nil
}

// inferSites assigns execution sites: operations below a TS run in the
// DBMS, operations below a TD run in the stratum again.
func inferSites(n algebra.Node, cur Site, out map[algebra.Node]Site) {
	out[n] = cur
	next := cur
	switch n.Op() {
	case algebra.OpTransferS:
		next = DBMS
	case algebra.OpTransferD:
		next = Stratum
	}
	for _, c := range n.Children() {
		inferSites(c, next, out)
	}
}

func inferState(n algebra.Node, out States, sites map[algebra.Node]Site) (State, error) {
	if s, ok := out[n]; ok {
		return s, nil
	}
	sch, err := n.Schema()
	if err != nil {
		return State{}, err
	}
	ch := n.Children()
	cs := make([]State, len(ch))
	for i, c := range ch {
		s, err := inferState(c, out, sites)
		if err != nil {
			return State{}, err
		}
		cs[i] = s
	}
	s := deriveState(n, sch, cs)
	s.Schema = sch
	s.Site = sites[n]
	// Inside the DBMS, only a sort's own result has a usable order
	// guarantee; every other operation's result order is unspecified.
	if s.Site == DBMS && n.Op() != algebra.OpSort {
		s.Order = nil
	}
	if !sch.Temporal() {
		s.SnapshotDistinct = s.Distinct
		s.Coalesced = false
	}
	out[n] = s
	return s, nil
}

// deriveState implements the Order / Duplicates / Coalescing columns of
// Table 1 plus snapshot-duplicate propagation.
func deriveState(n algebra.Node, sch *schema.Schema, cs []State) State {
	switch node := n.(type) {
	case *algebra.Rel:
		return State{
			Order:            node.Info.Order,
			Distinct:         node.Info.Distinct,
			SnapshotDistinct: node.Info.SnapshotDistinct,
			Coalesced:        node.Info.Coalesced,
		}
	case *algebra.Select:
		// σ retains order, duplicates and coalescing.
		return cs[0]
	case *algebra.Project:
		// π's order is Prefix(Order(r), ProjPairs); it generates
		// duplicates and destroys coalescing (projection can coarsen the
		// value-equivalence classes, Figure 3).
		return State{Order: projectedOrder(cs[0].Order, node)}
	case *algebra.Aggregate:
		// 𝒢/𝒢ᵀ eliminate duplicates; their order is
		// Prefix(Order(r), GroupPairs); 𝒢ᵀ destroys coalescing.
		return State{
			Order:            groupPrefixOrder(cs[0].Order, node.GroupBy, n.Op() == algebra.OpAggregate),
			Distinct:         true,
			SnapshotDistinct: true,
		}
	case *algebra.Sort:
		s := cs[0]
		if node.Spec.IsPrefixOf(s.Order) {
			// Special case of Table 1: sorting on a prefix of the existing
			// order keeps the stronger order.
			return s
		}
		s.Order = node.Spec
		return s
	case *algebra.Join:
		return productState(n.Op() == algebra.OpTJoin, cs, sch)
	}

	switch n.Op() {
	case algebra.OpUnionAll:
		// ⊔ is unordered, generates duplicates, destroys coalescing.
		return State{}
	case algebra.OpUnion:
		// ∪ is unordered and retains duplicates: the result is distinct
		// when both arguments are. On temporal arguments value-equivalent
		// tuples from the two sides may still overlap, so snapshot
		// distinctness is not retained.
		return State{Distinct: cs[0].Distinct && cs[1].Distinct}
	case algebra.OpTUnion:
		// ∪ᵀ: per instant each value occurs max(n1,n2) times, so snapshot
		// distinctness is the conjunction; regular distinctness
		// additionally needs the right side snapshot-distinct so that the
		// excess fragments cannot reproduce a left tuple (see eval).
		return State{
			Distinct:         cs[0].Distinct && cs[1].SnapshotDistinct,
			SnapshotDistinct: cs[0].SnapshotDistinct && cs[1].SnapshotDistinct,
		}
	case algebra.OpProduct:
		return productState(false, cs, sch)
	case algebra.OpTProduct:
		return productState(true, cs, sch)
	case algebra.OpDiff:
		// \ retains the left order and duplicates; the result is a
		// snapshot relation (time attributes qualified).
		return State{
			Order:    qualifyTimeOrder(cs[0].Order, sch),
			Distinct: cs[0].Distinct,
		}
	case algebra.OpTDiff:
		// \ᵀ retains the left order (time-free prefix: periods shrink);
		// with a snapshot-distinct left argument every fragment is unique.
		return State{
			Order:            cs[0].Order.TimeFreePrefix(),
			Distinct:         cs[0].SnapshotDistinct,
			SnapshotDistinct: cs[0].SnapshotDistinct,
		}
	case algebra.OpRdup:
		return State{
			Order:            qualifyTimeOrder(cs[0].Order, sch),
			Distinct:         true,
			SnapshotDistinct: true,
		}
	case algebra.OpTRdup:
		// rdupᵀ eliminates duplicates in snapshots (hence also regular
		// ones) and destroys coalescing.
		return State{
			Order:            cs[0].Order.TimeFreePrefix(),
			Distinct:         true,
			SnapshotDistinct: true,
		}
	case algebra.OpCoal:
		// coalᵀ retains order (time-free prefix — merged periods change),
		// retains duplicates and snapshot state, and enforces coalescing.
		return State{
			Order:            cs[0].Order.TimeFreePrefix(),
			Distinct:         cs[0].Distinct,
			SnapshotDistinct: cs[0].SnapshotDistinct,
			Coalesced:        true,
		}
	case algebra.OpTransferS, algebra.OpTransferD:
		// Transfers move data unchanged; the order guarantee of a DBMS
		// subplan survives only when produced by its top sort, which the
		// site handling in inferState enforces on the child itself.
		return cs[0]
	default:
		return State{}
	}
}

func productState(temporal bool, cs []State, sch *schema.Schema) State {
	var order relation.OrderSpec
	if temporal {
		order = productOrder(cs[0].Order.TimeFreePrefix(), cs[1].Schema, sch)
	} else {
		order = productOrder(cs[0].Order, cs[1].Schema, sch)
	}
	s := State{
		Order:    order,
		Distinct: cs[0].Distinct && cs[1].Distinct,
	}
	if temporal {
		s.SnapshotDistinct = cs[0].SnapshotDistinct && cs[1].SnapshotDistinct
	}
	return s
}

// productOrder maps the left argument's order into a product's result
// schema under the "1." qualification of clashing and time attributes.
func productOrder(in relation.OrderSpec, right, outSchema *schema.Schema) relation.OrderSpec {
	var out relation.OrderSpec
	for _, k := range in {
		name := k.Attr
		if name == schema.T1 || name == schema.T2 || (right != nil && right.Has(name)) {
			name = "1." + name
		}
		if !outSchema.Has(name) {
			break
		}
		out = append(out, relation.OrderKey{Attr: name, Dir: k.Dir})
	}
	return out
}

// qualifyTimeOrder renames T1/T2 order keys to their "1." qualified names
// in a snapshot result schema.
func qualifyTimeOrder(in relation.OrderSpec, outSchema *schema.Schema) relation.OrderSpec {
	var out relation.OrderSpec
	for _, k := range in {
		name := k.Attr
		if name == schema.T1 || name == schema.T2 {
			name = "1." + name
		}
		if !outSchema.Has(name) {
			break
		}
		out = append(out, relation.OrderKey{Attr: name, Dir: k.Dir})
	}
	return out
}

// projectedOrder computes Prefix(Order(r), ProjPairs) following renames of
// pure column items, mirroring the evaluator.
func projectedOrder(in relation.OrderSpec, n *algebra.Project) relation.OrderSpec {
	rename := make(map[string]string)
	for _, it := range n.Items {
		if col, ok := it.Expr.(expr.Col); ok {
			if _, seen := rename[col.Name]; !seen {
				rename[col.Name] = it.As
			}
		}
	}
	var out relation.OrderSpec
	for _, k := range in {
		newName, ok := rename[k.Attr]
		if !ok {
			break
		}
		out = append(out, relation.OrderKey{Attr: newName, Dir: k.Dir})
	}
	return out
}

// groupPrefixOrder computes Prefix(Order(r), GroupPairs); conventional
// aggregation over a temporal argument renames grouped time attributes.
func groupPrefixOrder(in relation.OrderSpec, groupBy []string, conventional bool) relation.OrderSpec {
	out := in.Prefix(groupBy)
	if conventional {
		out = out.Rename(schema.T1, "1."+schema.T1).Rename(schema.T2, "1."+schema.T2)
	}
	return out
}

// StateError reports a missing node in a States map — a sign that the map
// was computed for a different plan.
type StateError struct{ Node algebra.Node }

func (e *StateError) Error() string {
	return fmt.Sprintf("props: no state for node %s", e.Node.Label())
}

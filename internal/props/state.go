// Package props implements the static reasoning of Sections 5 and 6:
//
//   - State: bottom-up inference of what is statically known about each
//     node's result — its order (Table 1's Order column), duplicate
//     freeness, snapshot-duplicate freeness, and coalescing state. Rule
//     preconditions ("r does not have duplicates in snapshots", D2) consult
//     this state. The order comes from OrderOf, the repo's one copy of Table
//     1's Order column: the engines of packages eval and exec, the simulated
//     DBMS and the shard split label their result lists with it too.
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
	return NewMemo().States(root)
}

// ChildSite returns where the children of an op running at site run:
// below a TS in the DBMS, below a TD in the stratum again, and otherwise
// where their parent runs.
func ChildSite(site Site, op algebra.Op) Site {
	switch op {
	case algebra.OpTransferS:
		return DBMS
	case algebra.OpTransferD:
		return Stratum
	}
	return site
}

// Memo holds the states derived during one optimization. A state is a pure
// function of the node's subtree and the site the node executes at, so the
// memo derives each (subtree, site) once; a plan rewritten along one path,
// which shares every untouched subtree with its parent, derives only the
// new nodes on that path. A Memo is not safe for concurrent use.
type Memo struct {
	states map[Sited]State
}

// Sited is a subtree executing at a site: the key of every memo of one
// search, since what a search derives for a subtree depends on nothing else.
type Sited struct {
	Node algebra.Node
	Site Site
}

// NewMemo returns an empty memo.
func NewMemo() *Memo { return &Memo{states: make(map[Sited]State)} }

// State returns the state of n executing at site.
func (m *Memo) State(n algebra.Node, site Site) (State, error) {
	if s, ok := m.states[Sited{n, site}]; ok {
		return s, nil
	}
	sch, err := n.Schema()
	if err != nil {
		return State{}, err
	}
	ch := n.Children()
	var buf [2]State
	cs := buf[:len(ch)]
	for i, c := range ch {
		if cs[i], err = m.State(c, ChildSite(site, n.Op())); err != nil {
			return State{}, err
		}
	}
	s := deriveState(n, cs)
	s.Schema = sch
	s.Site = site
	if site == DBMS {
		s.Order = OrderOf(n)
	}
	if !sch.Temporal() {
		s.SnapshotDistinct = s.Distinct
		s.Coalesced = false
	}
	m.states[Sited{n, site}] = s
	return s, nil
}

// States returns the state of every node of the plan rooted at root, which
// executes in the stratum.
func (m *Memo) States(root algebra.Node) (States, error) {
	if _, err := m.State(root, Stratum); err != nil {
		return nil, err
	}
	st := make(States)
	var collect func(n algebra.Node, site Site)
	collect = func(n algebra.Node, site Site) {
		st[n] = m.states[Sited{n, site}]
		for _, c := range n.Children() {
			collect(c, ChildSite(site, n.Op()))
		}
	}
	collect(root, Stratum)
	return st, nil
}

// deriveState implements the Duplicates and Coalescing columns of Table 1
// plus snapshot-duplicate propagation, and takes the Order column from
// OrderOf. A base relation's state is what the catalog declares about it.
func deriveState(n algebra.Node, cs []State) State {
	if rel, ok := n.(*algebra.Rel); ok {
		return State{
			Order:            rel.Info.Order,
			Distinct:         rel.Info.Distinct,
			SnapshotDistinct: rel.Info.SnapshotDistinct,
			Coalesced:        rel.Info.Coalesced,
		}
	}
	// π and ⊔ generate duplicates and destroy coalescing: the zero state.
	var s State
	switch n.Op() {
	case algebra.OpSelect, algebra.OpSort, algebra.OpTransferS, algebra.OpTransferD:
		// σ and sort retain duplicates and coalescing; transfers move data
		// unchanged.
		s = cs[0]
	case algebra.OpAggregate, algebra.OpTAggregate, algebra.OpRdup, algebra.OpTRdup:
		// 𝒢/𝒢ᵀ and rdup eliminate duplicates, rdupᵀ those in snapshots
		// (hence also regular ones); all destroy coalescing.
		s = State{Distinct: true, SnapshotDistinct: true}
	case algebra.OpUnion:
		// ∪ retains duplicates: the result is distinct when both arguments
		// are. On temporal arguments value-equivalent tuples from the two
		// sides may still overlap, so snapshot distinctness is not retained.
		s.Distinct = cs[0].Distinct && cs[1].Distinct
	case algebra.OpTUnion:
		// ∪ᵀ: per instant each value occurs max(n1,n2) times, so snapshot
		// distinctness is the conjunction; regular distinctness
		// additionally needs the right side snapshot-distinct so that the
		// excess fragments cannot reproduce a left tuple (see eval).
		s.Distinct = cs[0].Distinct && cs[1].SnapshotDistinct
		s.SnapshotDistinct = cs[0].SnapshotDistinct && cs[1].SnapshotDistinct
	case algebra.OpProduct, algebra.OpJoin:
		s.Distinct = cs[0].Distinct && cs[1].Distinct
	case algebra.OpTProduct, algebra.OpTJoin:
		s.Distinct = cs[0].Distinct && cs[1].Distinct
		s.SnapshotDistinct = cs[0].SnapshotDistinct && cs[1].SnapshotDistinct
	case algebra.OpDiff:
		// \ retains the left argument's duplicates.
		s.Distinct = cs[0].Distinct
	case algebra.OpTDiff:
		// With a snapshot-distinct left argument every fragment is unique.
		s.Distinct = cs[0].SnapshotDistinct
		s.SnapshotDistinct = cs[0].SnapshotDistinct
	case algebra.OpCoal:
		// coalᵀ retains duplicates and snapshot state, and enforces
		// coalescing.
		s = State{Distinct: cs[0].Distinct, SnapshotDistinct: cs[0].SnapshotDistinct, Coalesced: true}
	}
	var in [2]relation.OrderSpec
	for i, c := range cs {
		in[i] = c.Order
	}
	s.Order = OrderOf(n, in[:len(cs)]...)
	return s
}

// OrderOf is Table 1's Order column, written once: the order n's result
// carries when its arguments deliver the orders in, in child order (a
// missing one is unordered). The planner's states, both engines' result
// annotations and the shard split all label their lists with it.
//
// A base relation has no arguments: it delivers its declared order, or its
// instance's when none is declared, which only the caller knows, so OrderOf
// gives it none. Called with no orders at all, OrderOf is the DBMS-site rule
// of Section 4.5: inside the DBMS no argument's order is guaranteed, so a
// node's order there is its own sort spec, or empty.
func OrderOf(n algebra.Node, in ...relation.OrderSpec) relation.OrderSpec {
	var arg relation.OrderSpec // the left (or only) argument's order
	if len(in) > 0 {
		arg = in[0]
	}
	switch node := n.(type) {
	case *algebra.Project:
		return projectedOrder(arg, node)
	case *algebra.Aggregate:
		// Prefix(Order(r), GroupPairs); the conventional 𝒢 yields a snapshot
		// relation naming a grouped T1/T2 1.T1/1.T2 (Aggregate.Schema).
		out := arg.Prefix(node.GroupBy)
		if node.Op() == algebra.OpAggregate {
			out = out.Rename(schema.T1, "1."+schema.T1).Rename(schema.T2, "1."+schema.T2)
		}
		return out
	case *algebra.Sort:
		if node.Spec.IsPrefixOf(arg) {
			// Special case: sorting on a prefix of the existing order keeps
			// the stronger order.
			return arg
		}
		return node.Spec
	}
	switch n.Op() {
	case algebra.OpSelect, algebra.OpTransferS, algebra.OpTransferD:
		return arg
	case algebra.OpProduct, algebra.OpJoin:
		// × retains the left order.
		return qualifiedOrder(arg, n, true)
	case algebra.OpTProduct, algebra.OpTJoin:
		// ×ᵀ retains the left order's time-free prefix: Order(r1) \ TimePairs.
		return qualifiedOrder(arg.TimeFreePrefix(), n, true)
	case algebra.OpDiff, algebra.OpRdup:
		// \ and rdup retain the (left) argument's order; their snapshot
		// result names the time attributes 1.T1/1.T2.
		return qualifiedOrder(arg, n, false)
	case algebra.OpTDiff, algebra.OpTRdup, algebra.OpCoal:
		// \ᵀ, rdupᵀ and coalᵀ change periods: the time-free prefix survives.
		return arg.TimeFreePrefix()
	}
	// Base relations, ⊔, ∪ and ∪ᵀ.
	return nil
}

// qualifiedOrder maps an argument's order into n's result schema under the
// "1." qualification of time attributes and, for a product, of attributes
// the right argument also has; the first key the result lacks ends it.
func qualifiedOrder(in relation.OrderSpec, n algebra.Node, product bool) relation.OrderSpec {
	if len(in) == 0 {
		return nil
	}
	outSchema, err := n.Schema()
	if err != nil {
		return nil
	}
	var right *schema.Schema
	if product {
		if right, err = n.Children()[1].Schema(); err != nil {
			return nil
		}
	}
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

// projectedOrder computes Prefix(Order(r), ProjPairs): an order key survives
// while its attribute is projected as a plain column, possibly renamed.
func projectedOrder(in relation.OrderSpec, n *algebra.Project) relation.OrderSpec {
	if len(in) == 0 {
		return nil
	}
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

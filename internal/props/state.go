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

// State returns n's state, and false when the plan has no node n.
func (s States) State(n algebra.Node) (State, bool) {
	st, ok := s[n]
	return st, ok
}

// InferStates computes the static state of every node in the plan. It
// keeps no memo: it derives each position once, bottom-up, and a node at
// several positions keeps the state of the last in pre-order.
func InferStates(root algebra.Node) (States, error) {
	st := make(States)
	if _, err := infer(root, Stratum, st); err != nil {
		return nil, err
	}
	return st, nil
}

// InferState is the state InferStates derives for root, without keeping
// its descendants'.
func InferState(root algebra.Node) (State, error) {
	return infer(root, Stratum, nil)
}

// infer derives the state of n executing at site, and of its descendants
// into st unless st is nil.
func infer(n algebra.Node, site Site, st States) (State, error) {
	ch := n.Children()
	var buf [2]State
	cs := buf[:len(ch)]
	for i, c := range ch {
		var err error
		if cs[i], err = infer(c, ChildSite(site, n.Op()), st); err != nil {
			return State{}, err
		}
	}
	s, err := StateAt(n, site, cs)
	if err != nil {
		return State{}, err
	}
	if st != nil {
		st[n] = s
	}
	return s, nil
}

// StateAt is the state of n executing at site over its children's states
// cs, in child order — the one per-node derivation behind InferStates and
// Memo, and what the exec engine labels each stage it compiles with (at
// Stratum, over its inputs' delivered states). A base relation has no
// children: its state is what its BaseInfo declares.
func StateAt(n algebra.Node, site Site, cs []State) (State, error) {
	sch, err := n.Schema()
	if err != nil {
		return State{}, err
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
	return s, nil
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

// Table holds one value per (subtree, site) of one search, over the
// search's intern table: the node with id i has slot i·2+site, and slots
// maps the slot to the value's index in vals (plus one; 0 is empty), so a
// lookup is two slice reads. Every node a Table is handed must come from
// its intern table; a plan built outside a search is interned into a table
// of its own first (as cost.Model.Plan and Model.Cost do). A Table is not
// safe for concurrent use.
type Table[T any] struct {
	in    *algebra.Interner
	slots []int32
	vals  []T
}

// NewTable returns an empty table over the nodes in hands out.
func NewTable[T any](in *algebra.Interner) *Table[T] { return &Table[T]{in: in} }

// slot returns n's slot at site. A node the table's intern table did not
// hand out has none: that is a caller's bug, and slot panics.
func (t *Table[T]) slot(n algebra.Node, site Site) int {
	id, ok := t.in.ID(n)
	if !ok {
		panic("props: a node the table's intern table did not hand out")
	}
	return int(id)*2 + int(site)
}

// Index returns the index of n's value at site, and false when there is none.
func (t *Table[T]) Index(n algebra.Node, site Site) (int, bool) {
	var i int32
	if s := t.slot(n, site); s < len(t.slots) {
		i = t.slots[s]
	}
	return int(i) - 1, i != 0
}

// Get returns n's value at site, and false when there is none.
func (t *Table[T]) Get(n algebra.Node, site Site) (T, bool) {
	i, ok := t.Index(n, site)
	if !ok {
		var zero T
		return zero, false
	}
	return t.vals[i], true
}

// At returns the i-th value in place; the pointer is valid until the next
// Add, which may move the values.
func (t *Table[T]) At(i int) *T { return &t.vals[i] }

// Add records v as n's value at site, which has none yet, and returns its
// index.
func (t *Table[T]) Add(n algebra.Node, site Site, v T) int {
	s := t.slot(n, site)
	if t.vals == nil {
		t.vals = make([]T, 0, 64)
	}
	t.vals = append(t.vals, v)
	if s >= len(t.slots) {
		// Cover every node the interner has handed out so far; append
		// grows the capacity geometrically.
		t.slots = append(t.slots, make([]int32, max(2*t.in.Len(), 128)-len(t.slots))...)
	}
	t.slots[s] = int32(len(t.vals))
	return len(t.vals) - 1
}

// Memo holds the states derived during one optimization. A state is a pure
// function of the node's subtree and the site the node executes at, so the
// memo derives each (subtree, site) once, into a Table over the search's
// intern table; a plan rewritten along one path, which shares every
// untouched subtree with its parent, derives only the new nodes on that
// path. A Memo is not safe for concurrent use.
type Memo struct {
	states Table[State]
}

// NewMemo returns an empty memo over the nodes the intern table in hands
// out.
func NewMemo(in *algebra.Interner) *Memo { return &Memo{states: Table[State]{in: in}} }

// Interner returns the intern table whose nodes the memo indexes by id.
func (m *Memo) Interner() *algebra.Interner { return m.states.in }

// State returns the state of n executing at site.
func (m *Memo) State(n algebra.Node, site Site) (State, error) {
	if i, ok := m.states.Index(n, site); ok {
		return m.states.vals[i], nil
	}
	i, err := m.derive(n, site)
	if err != nil {
		return State{}, err
	}
	return m.states.vals[i], nil
}

// derive derives the state of n executing at site, which the memo does
// not hold yet, and returns its index.
func (m *Memo) derive(n algebra.Node, site Site) (int, error) {
	ch := n.Children()
	var buf [2]State
	cs := buf[:len(ch)]
	for i, c := range ch {
		var err error
		if cs[i], err = m.State(c, ChildSite(site, n.Op())); err != nil {
			return 0, err
		}
	}
	s, err := StateAt(n, site, cs)
	if err != nil {
		return 0, err
	}
	return m.states.Add(n, site, s), nil
}

// View is the states of the top levels of one location's subtree, as
// Memo.Subtree collects them: a search hands the rules one View, refilled
// at every location it matches them at, and collects no deeper than a
// rule reads (at most 15 positions at rules.StateDepth).
type View struct {
	m     *Memo
	nodes []algebra.Node
	at    []int32 // each node's index in the memo's states
}

// State returns n's state, and false when n is not in the view. A node at
// several positions reads the state of the last in pre-order, as
// InferStates keeps it.
func (v *View) State(n algebra.Node) (State, bool) {
	for i := len(v.nodes) - 1; i >= 0; i-- {
		if v.nodes[i] == n {
			return v.m.states.vals[v.at[i]], true
		}
	}
	return State{}, false
}

// Subtree refills v with the state of n, executing at site, and of its
// descendants down to depth levels below it, in pre-order.
func (m *Memo) Subtree(n algebra.Node, site Site, depth int, v *View) error {
	if _, err := m.State(n, site); err != nil {
		return err
	}
	if v.nodes == nil {
		v.nodes, v.at = make([]algebra.Node, 0, 16), make([]int32, 0, 16)
	}
	v.m, v.nodes, v.at = m, v.nodes[:0], v.at[:0]
	m.collect(n, site, depth, v)
	return nil
}

func (m *Memo) collect(n algebra.Node, site Site, depth int, v *View) {
	i, _ := m.states.Index(n, site) // derived by Subtree's State
	v.nodes = append(v.nodes, n)
	v.at = append(v.at, int32(i))
	if depth == 0 {
		return
	}
	for _, c := range n.Children() {
		m.collect(c, ChildSite(site, n.Op()), depth-1, v)
	}
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

package algebra

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"tqp/internal/expr"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// Node is an immutable operator-tree node. A node computes its schema and
// canonical key once, on first use, and is safe for concurrent use: plans
// are shared by concurrent queries.
type Node interface {
	// Op returns the operator kind.
	Op() Op
	// Children returns the node's own child slice, built with the node: it
	// is not a copy, so callers must never write into it (rebuild through
	// WithChildren instead).
	Children() []Node
	// WithChildren returns a copy of the node with the given children; it
	// copies them out of ch, which it does not keep.
	WithChildren(ch ...Node) Node
	// Schema derives the node's output schema, validating this node's own
	// parameters against the children's schemas. The first call derives it;
	// later calls return the same schema and error.
	Schema() (*schema.Schema, error)
	// Label renders the operator with its parameters but without children,
	// e.g. "project{EmpName,T1,T2}".
	Label() string
	// derived returns what the node computes once; being unexported, it
	// also keeps every Node implementation inside this package.
	derived() *derived
}

// derived holds a node's lazily computed values, each computed at most once
// even when several goroutines ask for it at the same time.
type derived struct {
	schemaOnce sync.Once
	schema     *schema.Schema
	schemaErr  error
	keyOnce    sync.Once
	key        string
	labelOnce  sync.Once
	label      string
	// owner marks the intern table that registered the node (0: none has)
	// and id is the node's id there. The table claims the node with a
	// compare-and-swap on owner and writes id before it hands the node
	// out; only the owning table reads id.
	owner atomic.Uint64
	id    int32
}

// labelOf returns n's label, rendering it on first use only: the canonical
// key and the intern table of a search both read it for every node.
func labelOf(n Node) string {
	d := n.derived()
	d.labelOnce.Do(func() { d.label = n.Label() })
	return d.label
}

// schemaOf returns the schema build derives, calling build on first use only.
func (d *derived) schemaOf(build func() (*schema.Schema, error)) (*schema.Schema, error) {
	d.schemaOnce.Do(func() { d.schema, d.schemaErr = build() })
	return d.schema, d.schemaErr
}

// BaseInfo carries the catalog's knowledge about a base relation, used by
// static state inference: its declared order and whether it is known to be
// duplicate-free, snapshot-duplicate-free, or coalesced.
type BaseInfo struct {
	Order            relation.OrderSpec
	Distinct         bool
	SnapshotDistinct bool
	Coalesced        bool
}

// Rel is a leaf referencing a named base relation.
type Rel struct {
	Name string
	Sch  *schema.Schema
	Info BaseInfo
	d    derived
}

// NewRel returns a base-relation leaf.
func NewRel(name string, sch *schema.Schema, info BaseInfo) *Rel {
	return &Rel{Name: name, Sch: sch, Info: info}
}

// Op implements Node.
func (n *Rel) Op() Op { return OpRel }

// Children implements Node.
func (n *Rel) Children() []Node { return nil }

func (n *Rel) derived() *derived { return &n.d }

// WithChildren implements Node.
func (n *Rel) WithChildren(ch ...Node) Node {
	if len(ch) != 0 {
		panic("algebra: Rel takes no children")
	}
	return n
}

// Schema implements Node.
func (n *Rel) Schema() (*schema.Schema, error) {
	if n.Sch == nil {
		return nil, fmt.Errorf("algebra: relation %q has no schema", n.Name)
	}
	return n.Sch, nil
}

// Label implements Node.
func (n *Rel) Label() string { return n.Name }

// Select is the selection σ_P. Per Table 1 it retains order, duplicates and
// coalescing... (coalescing is retained: removing whole tuples cannot create
// adjacency violations).
type Select struct {
	P    expr.Pred
	kids [1]Node
	d    derived
}

// NewSelect returns σ_P(child).
func NewSelect(p expr.Pred, child Node) *Select { return &Select{P: p, kids: [1]Node{child}} }

// Op implements Node.
func (n *Select) Op() Op { return OpSelect }

// Children implements Node.
func (n *Select) Children() []Node { return n.kids[:] }

func (n *Select) derived() *derived { return &n.d }

// WithChildren implements Node.
func (n *Select) WithChildren(ch ...Node) Node {
	mustArity(OpSelect, len(ch))
	return NewSelect(n.P, ch[0])
}

// Schema implements Node.
func (n *Select) Schema() (*schema.Schema, error) { return n.d.schemaOf(n.deriveSchema) }

func (n *Select) deriveSchema() (*schema.Schema, error) {
	s, err := n.kids[0].Schema()
	if err != nil {
		return nil, err
	}
	for _, a := range expr.AttrsOf(n.P) {
		if !s.Has(a) {
			return nil, fmt.Errorf("algebra: selection predicate uses unknown attribute %q", a)
		}
	}
	return s, nil
}

// Label implements Node.
func (n *Select) Label() string { return "select{" + n.P.String() + "}" }

// ProjItem is one output column of a projection: an expression and its
// result name.
type ProjItem struct {
	Expr expr.Expr
	As   string
}

// ColItem is shorthand for projecting an attribute under its own name.
func ColItem(name string) ProjItem { return ProjItem{Expr: expr.Column(name), As: name} }

// String renders "expr AS name", shortened when the expression is the
// attribute itself.
func (p ProjItem) String() string {
	if c, ok := p.Expr.(expr.Col); ok && c.Name == p.As {
		return p.As
	}
	return p.Expr.String() + " AS " + p.As
}

// Project is the generalized projection π_{f1,...,fn}. Per Table 1 its
// result order is Prefix(Order(r), ProjPairs), it may generate duplicates,
// and it destroys coalescing.
type Project struct {
	Items []ProjItem
	kids  [1]Node
	d     derived
}

// NewProject returns π_items(child).
func NewProject(items []ProjItem, child Node) *Project {
	return &Project{Items: items, kids: [1]Node{child}}
}

// NewProjectCols returns a projection onto the named attributes.
func NewProjectCols(child Node, names ...string) *Project {
	items := make([]ProjItem, len(names))
	for i, n := range names {
		items[i] = ColItem(n)
	}
	return NewProject(items, child)
}

// Op implements Node.
func (n *Project) Op() Op { return OpProject }

// Children implements Node.
func (n *Project) Children() []Node { return n.kids[:] }

func (n *Project) derived() *derived { return &n.d }

// WithChildren implements Node.
func (n *Project) WithChildren(ch ...Node) Node {
	mustArity(OpProject, len(ch))
	return NewProject(n.Items, ch[0])
}

// Schema implements Node.
func (n *Project) Schema() (*schema.Schema, error) { return n.d.schemaOf(n.deriveSchema) }

func (n *Project) deriveSchema() (*schema.Schema, error) {
	s, err := n.kids[0].Schema()
	if err != nil {
		return nil, err
	}
	attrs := make([]schema.Attribute, 0, len(n.Items))
	for _, it := range n.Items {
		k, err := it.Expr.Kind(s)
		if err != nil {
			return nil, fmt.Errorf("algebra: projection item %s: %w", it, err)
		}
		if it.As == "" {
			return nil, fmt.Errorf("algebra: projection item %s lacks a result name", it.Expr)
		}
		attrs = append(attrs, schema.Attr(it.As, k))
	}
	return schema.New(attrs...)
}

// Label implements Node.
func (n *Project) Label() string {
	parts := make([]string, len(n.Items))
	for i, it := range n.Items {
		parts[i] = it.String()
	}
	return "project{" + strings.Join(parts, ",") + "}"
}

// binary is the shared shape of parameter-free binary operators.
type binary struct {
	op   Op
	kids [2]Node
	d    derived
}

func newBinary(op Op, l, r Node) Node { return &binary{op: op, kids: [2]Node{l, r}} }

func (n *binary) Op() Op            { return n.op }
func (n *binary) Children() []Node  { return n.kids[:] }
func (n *binary) derived() *derived { return &n.d }
func (n *binary) WithChildren(ch ...Node) Node {
	mustArity(n.op, len(ch))
	return newBinary(n.op, ch[0], ch[1])
}
func (n *binary) Label() string { return n.op.String() }

// Schema implements Node for each parameter-free binary operator.
func (n *binary) Schema() (*schema.Schema, error) { return n.d.schemaOf(n.deriveSchema) }

func (n *binary) deriveSchema() (*schema.Schema, error) {
	ls, err := n.kids[0].Schema()
	if err != nil {
		return nil, err
	}
	rs, err := n.kids[1].Schema()
	if err != nil {
		return nil, err
	}
	switch n.op {
	case OpUnionAll, OpUnion:
		if !ls.Equal(rs) {
			return nil, fmt.Errorf("algebra: %s over unequal schemas %s vs %s", n.op, ls, rs)
		}
		return ls, nil
	case OpTUnion:
		if !ls.Temporal() || !rs.Temporal() {
			return nil, fmt.Errorf("algebra: %s requires temporal arguments", n.op)
		}
		if !ls.Equal(rs) {
			return nil, fmt.Errorf("algebra: %s over unequal schemas %s vs %s", n.op, ls, rs)
		}
		return ls, nil
	case OpDiff:
		if !ls.Equal(rs) {
			return nil, fmt.Errorf("algebra: %s over unequal schemas %s vs %s", n.op, ls, rs)
		}
		// Regular difference has a temporal counterpart, so it produces a
		// snapshot relation: time attributes become ordinary data columns.
		return ls.QualifyTime(1), nil
	case OpTDiff:
		if !ls.Temporal() || !rs.Temporal() {
			return nil, fmt.Errorf("algebra: %s requires temporal arguments", n.op)
		}
		if !ls.Equal(rs) {
			return nil, fmt.Errorf("algebra: %s over unequal schemas %s vs %s", n.op, ls, rs)
		}
		return ls, nil
	case OpProduct:
		// Conventional product produces a snapshot relation: each side's
		// time attributes are qualified, then the sides concatenated.
		return ls.QualifyTime(1).Concat(rs.QualifyTime(2))
	case OpTProduct:
		if !ls.Temporal() || !rs.Temporal() {
			return nil, fmt.Errorf("algebra: %s requires temporal arguments", n.op)
		}
		// The temporal product retains the argument timestamps (qualified)
		// and appends a fresh period T1/T2 holding the intersection
		// (Section 4.3, rule C9's projection removes 1.T1,1.T2,2.T1,2.T2).
		core, err := ls.QualifyTime(1).Concat(rs.QualifyTime(2))
		if err != nil {
			return nil, err
		}
		attrs := append(core.Attributes(),
			schema.Attr(schema.T1, value.KindTime),
			schema.Attr(schema.T2, value.KindTime))
		return schema.New(attrs...)
	default:
		return nil, fmt.Errorf("algebra: binary schema for %s", n.op)
	}
}

// NewUnionAll returns l ⊔ r (concatenation).
func NewUnionAll(l, r Node) Node { return newBinary(OpUnionAll, l, r) }

// NewUnion returns the multiset union l ∪ r (max multiplicity).
func NewUnion(l, r Node) Node { return newBinary(OpUnion, l, r) }

// NewTUnion returns the temporal union l ∪ᵀ r.
func NewTUnion(l, r Node) Node { return newBinary(OpTUnion, l, r) }

// NewProduct returns the conventional Cartesian product l × r.
func NewProduct(l, r Node) Node { return newBinary(OpProduct, l, r) }

// NewTProduct returns the temporal Cartesian product l ×ᵀ r.
func NewTProduct(l, r Node) Node { return newBinary(OpTProduct, l, r) }

// NewDiff returns the multiset difference l \ r.
func NewDiff(l, r Node) Node { return newBinary(OpDiff, l, r) }

// NewTDiff returns the temporal difference l \ᵀ r.
func NewTDiff(l, r Node) Node { return newBinary(OpTDiff, l, r) }

func mustArity(op Op, n int) {
	if op.Arity() != n {
		panic(fmt.Sprintf("algebra: %s takes %d children, got %d", op, op.Arity(), n))
	}
}

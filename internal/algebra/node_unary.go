package algebra

import (
	"fmt"
	"strings"

	"tqp/internal/expr"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// Aggregate is the conventional aggregation 𝒢_{G1..Gn;F1..Fm}: group by the
// G attributes and compute the F aggregates. Per Table 1, its result order
// is Prefix(Order(r), GroupPairs), it eliminates duplicates, and — having a
// temporal counterpart — it produces a snapshot relation.
type Aggregate struct {
	GroupBy  []string
	Aggs     []expr.Aggregate
	kids     [1]Node
	temporal bool // true for the temporal counterpart 𝒢ᵀ
	d        derived
}

// NewAggregate returns 𝒢_{groupBy;aggs}(child).
func NewAggregate(groupBy []string, aggs []expr.Aggregate, child Node) *Aggregate {
	return &Aggregate{GroupBy: groupBy, Aggs: aggs, kids: [1]Node{child}}
}

// NewTAggregate returns the temporal aggregation 𝒢ᵀ_{groupBy;aggs}(child);
// groupBy must not include the time attributes.
func NewTAggregate(groupBy []string, aggs []expr.Aggregate, child Node) *Aggregate {
	return &Aggregate{GroupBy: groupBy, Aggs: aggs, kids: [1]Node{child}, temporal: true}
}

// Op implements Node.
func (n *Aggregate) Op() Op {
	if n.temporal {
		return OpTAggregate
	}
	return OpAggregate
}

// Children implements Node.
func (n *Aggregate) Children() []Node { return n.kids[:] }

func (n *Aggregate) derived() *derived { return &n.d }

// WithChildren implements Node.
func (n *Aggregate) WithChildren(ch ...Node) Node {
	mustArity(n.Op(), len(ch))
	return &Aggregate{GroupBy: n.GroupBy, Aggs: n.Aggs, kids: [1]Node{ch[0]}, temporal: n.temporal}
}

// Schema implements Node.
func (n *Aggregate) Schema() (*schema.Schema, error) { return n.d.schemaOf(n.deriveSchema) }

func (n *Aggregate) deriveSchema() (*schema.Schema, error) {
	s, err := n.kids[0].Schema()
	if err != nil {
		return nil, err
	}
	if n.temporal && !s.Temporal() {
		return nil, fmt.Errorf("algebra: %s requires a temporal argument", n.Op())
	}
	attrs := make([]schema.Attribute, 0, len(n.GroupBy)+len(n.Aggs)+2)
	for _, g := range n.GroupBy {
		i := s.Index(g)
		if i < 0 {
			return nil, fmt.Errorf("algebra: grouping on unknown attribute %q", g)
		}
		name := g
		if !n.temporal && (g == schema.T1 || g == schema.T2) {
			// Conventional aggregation yields a snapshot relation; grouping
			// on a time attribute keeps it as data under a qualified name.
			name = "1." + g
		}
		if n.temporal && (g == schema.T1 || g == schema.T2) {
			return nil, fmt.Errorf("algebra: %s cannot group on time attribute %q", n.Op(), g)
		}
		attrs = append(attrs, schema.Attr(name, s.At(i).Kind))
	}
	for _, a := range n.Aggs {
		k, err := a.ResultKind(s)
		if err != nil {
			return nil, err
		}
		if a.As == "" {
			return nil, fmt.Errorf("algebra: aggregate %s lacks a result name", a)
		}
		attrs = append(attrs, schema.Attr(a.As, k))
	}
	if n.temporal {
		attrs = append(attrs,
			schema.Attr(schema.T1, value.KindTime),
			schema.Attr(schema.T2, value.KindTime))
	}
	return schema.New(attrs...)
}

// Label implements Node.
func (n *Aggregate) Label() string {
	parts := make([]string, 0, len(n.GroupBy)+len(n.Aggs))
	parts = append(parts, n.GroupBy...)
	for _, a := range n.Aggs {
		parts = append(parts, a.String())
	}
	return n.Op().String() + "{" + strings.Join(parts, ",") + "}"
}

// Equal implements Node.
func (n *Aggregate) Equal(other Node) bool {
	o, ok := other.(*Aggregate)
	if !ok || o.temporal != n.temporal ||
		len(o.GroupBy) != len(n.GroupBy) || len(o.Aggs) != len(n.Aggs) {
		return false
	}
	for i := range n.GroupBy {
		if n.GroupBy[i] != o.GroupBy[i] {
			return false
		}
	}
	for i := range n.Aggs {
		if n.Aggs[i] != o.Aggs[i] {
			return false
		}
	}
	return n.kids[0].Equal(o.kids[0])
}

// unary is the shared shape of parameter-free unary operators: rdup, rdupᵀ,
// coalᵀ, TS, TD.
type unary struct {
	op   Op
	kids [1]Node
	d    derived
}

func newUnary(op Op, child Node) Node { return &unary{op: op, kids: [1]Node{child}} }

func (n *unary) Op() Op            { return n.op }
func (n *unary) Children() []Node  { return n.kids[:] }
func (n *unary) derived() *derived { return &n.d }
func (n *unary) WithChildren(ch ...Node) Node {
	mustArity(n.op, len(ch))
	return newUnary(n.op, ch[0])
}
func (n *unary) Label() string { return n.op.String() }
func (n *unary) Equal(other Node) bool {
	o, ok := other.(*unary)
	return ok && o.op == n.op && n.kids[0].Equal(o.kids[0])
}

// Schema implements Node for each parameter-free unary operator.
func (n *unary) Schema() (*schema.Schema, error) { return n.d.schemaOf(n.deriveSchema) }

func (n *unary) deriveSchema() (*schema.Schema, error) {
	s, err := n.kids[0].Schema()
	if err != nil {
		return nil, err
	}
	switch n.op {
	case OpRdup:
		// Regular duplicate elimination produces a snapshot relation; on a
		// temporal argument the time attributes are renamed "1.T1"/"1.T2"
		// exactly as in Figure 3's R2.
		return s.QualifyTime(1), nil
	case OpTRdup, OpCoal:
		if !s.Temporal() {
			return nil, fmt.Errorf("algebra: %s requires a temporal argument", n.op)
		}
		return s, nil
	case OpTransferS, OpTransferD:
		return s, nil
	default:
		return nil, fmt.Errorf("algebra: unary schema for %s", n.op)
	}
}

// NewRdup returns rdup(child), regular duplicate elimination.
func NewRdup(child Node) Node { return newUnary(OpRdup, child) }

// NewTRdup returns rdupᵀ(child), temporal duplicate elimination.
func NewTRdup(child Node) Node { return newUnary(OpTRdup, child) }

// NewCoal returns coalᵀ(child), coalescing.
func NewCoal(child Node) Node { return newUnary(OpCoal, child) }

// NewTransferS returns TS(child): transfer the child's result from the DBMS
// to the stratum. Everything strictly below a TS executes in the DBMS.
func NewTransferS(child Node) Node { return newUnary(OpTransferS, child) }

// NewTransferD returns TD(child): transfer the child's result from the
// stratum to the DBMS.
func NewTransferD(child Node) Node { return newUnary(OpTransferD, child) }

// Sort is the sorting operation sort_A. Per Table 1 it retains duplicates
// and coalescing; its result order is A — or Order(r) in the special case
// where A is a prefix of Order(r).
type Sort struct {
	Spec relation.OrderSpec
	kids [1]Node
	d    derived
}

// NewSort returns sort_spec(child).
func NewSort(spec relation.OrderSpec, child Node) *Sort {
	return &Sort{Spec: spec, kids: [1]Node{child}}
}

// Op implements Node.
func (n *Sort) Op() Op { return OpSort }

// Children implements Node.
func (n *Sort) Children() []Node { return n.kids[:] }

func (n *Sort) derived() *derived { return &n.d }

// WithChildren implements Node.
func (n *Sort) WithChildren(ch ...Node) Node {
	mustArity(OpSort, len(ch))
	return NewSort(n.Spec, ch[0])
}

// Schema implements Node.
func (n *Sort) Schema() (*schema.Schema, error) { return n.d.schemaOf(n.deriveSchema) }

func (n *Sort) deriveSchema() (*schema.Schema, error) {
	s, err := n.kids[0].Schema()
	if err != nil {
		return nil, err
	}
	if err := n.Spec.Validate(s); err != nil {
		return nil, err
	}
	return s, nil
}

// Label implements Node.
func (n *Sort) Label() string {
	var b strings.Builder
	b.WriteString("sort{")
	for i, k := range n.Spec {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k.Attr)
		b.WriteByte(' ')
		b.WriteString(k.Dir.String())
	}
	b.WriteByte('}')
	return b.String()
}

// Equal implements Node.
func (n *Sort) Equal(other Node) bool {
	o, ok := other.(*Sort)
	return ok && n.Spec.Equal(o.Spec) && n.kids[0].Equal(o.kids[0])
}

// Join is the join idiom: σ_P(l × r) — and TJoin its temporal counterpart
// σ_P(l ×ᵀ r). Idioms are "combinations of operations ... included for
// efficiency, but ... identified as idioms" (Section 2.2). Expand converts
// a join back to its defining combination.
type Join struct {
	P        expr.Pred
	kids     [2]Node
	temporal bool
	d        derived
}

// NewJoin returns the conventional join idiom l ⋈_P r.
func NewJoin(p expr.Pred, l, r Node) *Join { return &Join{P: p, kids: [2]Node{l, r}} }

// NewTJoin returns the temporal join idiom l ⋈ᵀ_P r.
func NewTJoin(p expr.Pred, l, r Node) *Join {
	return &Join{P: p, kids: [2]Node{l, r}, temporal: true}
}

// Op implements Node.
func (n *Join) Op() Op {
	if n.temporal {
		return OpTJoin
	}
	return OpJoin
}

// Children implements Node.
func (n *Join) Children() []Node { return n.kids[:] }

func (n *Join) derived() *derived { return &n.d }

// WithChildren implements Node.
func (n *Join) WithChildren(ch ...Node) Node {
	mustArity(n.Op(), len(ch))
	return &Join{P: n.P, kids: [2]Node{ch[0], ch[1]}, temporal: n.temporal}
}

// Schema implements Node.
func (n *Join) Schema() (*schema.Schema, error) {
	return n.d.schemaOf(func() (*schema.Schema, error) { return n.Expand().Schema() })
}

// Expand returns the defining combination σ_P(l × r) or σ_P(l ×ᵀ r).
func (n *Join) Expand() Node {
	if n.temporal {
		return NewSelect(n.P, NewTProduct(n.kids[0], n.kids[1]))
	}
	return NewSelect(n.P, NewProduct(n.kids[0], n.kids[1]))
}

// Label implements Node.
func (n *Join) Label() string { return n.Op().String() + "{" + n.P.String() + "}" }

// Equal implements Node.
func (n *Join) Equal(other Node) bool {
	o, ok := other.(*Join)
	return ok && o.temporal == n.temporal && n.P.EqualPred(o.P) &&
		n.kids[0].Equal(o.kids[0]) && n.kids[1].Equal(o.kids[1])
}

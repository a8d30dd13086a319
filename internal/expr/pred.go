package expr

import (
	"fmt"

	"tqp/internal/relation"
	"tqp/internal/schema"
)

// Pred is a selection predicate evaluated against a tuple.
type Pred interface {
	// Holds reports whether the predicate is satisfied by t under s.
	Holds(s *schema.Schema, t relation.Tuple) (bool, error)
	// Attrs adds every attribute mentioned by the predicate to set; this is
	// the paper's attr(P) used in rule preconditions.
	Attrs(set map[string]bool)
	// String renders the predicate.
	String() string
}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	default:
		return ">="
	}
}

// Cmp compares two scalar expressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Compare builds a comparison predicate.
func Compare(op CmpOp, l, r Expr) Cmp { return Cmp{Op: op, L: l, R: r} }

// Holds implements Pred.
func (c Cmp) Holds(s *schema.Schema, t relation.Tuple) (bool, error) {
	lv, err := c.L.Eval(s, t)
	if err != nil {
		return false, err
	}
	rv, err := c.R.Eval(s, t)
	if err != nil {
		return false, err
	}
	cr := lv.Compare(rv)
	switch c.Op {
	case Eq:
		return cr == 0, nil
	case Ne:
		return cr != 0, nil
	case Lt:
		return cr < 0, nil
	case Le:
		return cr <= 0, nil
	case Gt:
		return cr > 0, nil
	default:
		return cr >= 0, nil
	}
}

// Attrs implements Pred.
func (c Cmp) Attrs(set map[string]bool) {
	c.L.Attrs(set)
	c.R.Attrs(set)
}

// String implements Pred.
func (c Cmp) String() string { return c.L.String() + " " + c.Op.String() + " " + c.R.String() }

// And is a conjunction of predicates.
type And struct{ L, R Pred }

// Conj builds a conjunction.
func Conj(l, r Pred) And { return And{L: l, R: r} }

// Holds implements Pred.
func (a And) Holds(s *schema.Schema, t relation.Tuple) (bool, error) {
	lb, err := a.L.Holds(s, t)
	if err != nil || !lb {
		return false, err
	}
	return a.R.Holds(s, t)
}

// Attrs implements Pred.
func (a And) Attrs(set map[string]bool) {
	a.L.Attrs(set)
	a.R.Attrs(set)
}

// String implements Pred.
func (a And) String() string { return "(" + a.L.String() + " AND " + a.R.String() + ")" }

// Or is a disjunction of predicates.
type Or struct{ L, R Pred }

// Disj builds a disjunction.
func Disj(l, r Pred) Or { return Or{L: l, R: r} }

// Holds implements Pred.
func (o Or) Holds(s *schema.Schema, t relation.Tuple) (bool, error) {
	lb, err := o.L.Holds(s, t)
	if err != nil || lb {
		return lb, err
	}
	return o.R.Holds(s, t)
}

// Attrs implements Pred.
func (o Or) Attrs(set map[string]bool) {
	o.L.Attrs(set)
	o.R.Attrs(set)
}

// String implements Pred.
func (o Or) String() string { return "(" + o.L.String() + " OR " + o.R.String() + ")" }

// Not negates a predicate.
type Not struct{ P Pred }

// Neg builds a negation.
func Neg(p Pred) Not { return Not{P: p} }

// Holds implements Pred.
func (n Not) Holds(s *schema.Schema, t relation.Tuple) (bool, error) {
	b, err := n.P.Holds(s, t)
	return !b, err
}

// Attrs implements Pred.
func (n Not) Attrs(set map[string]bool) { n.P.Attrs(set) }

// String implements Pred.
func (n Not) String() string { return "NOT " + n.P.String() }

// TruePred is the always-true predicate.
type TruePred struct{}

// Holds implements Pred.
func (TruePred) Holds(*schema.Schema, relation.Tuple) (bool, error) { return true, nil }

// Attrs implements Pred.
func (TruePred) Attrs(map[string]bool) {}

// String implements Pred.
func (TruePred) String() string { return "TRUE" }

// PeriodOp names an Allen-style period predicate over the tuple's own
// period attributes or over two qualified periods (e.g., in a temporal join
// condition).
type PeriodOp uint8

// Period predicates: the statement classes of Section 2.2 include statements
// that explicitly manipulate time values with "convenient operations and
// predicates defined on them"; these are those predicates.
const (
	POverlaps PeriodOp = iota
	PContains
	PMeets
	PPrecedes
)

func (op PeriodOp) String() string {
	switch op {
	case POverlaps:
		return "OVERLAPS"
	case PContains:
		return "CONTAINS"
	case PMeets:
		return "MEETS"
	default:
		return "PRECEDES"
	}
}

// PeriodPred applies a period predicate to two periods given by their
// endpoint expressions.
type PeriodPred struct {
	Op           PeriodOp
	AStart, AEnd Expr
	BStart, BEnd Expr
}

// Holds implements Pred.
func (p PeriodPred) Holds(s *schema.Schema, t relation.Tuple) (bool, error) {
	as, err := p.AStart.Eval(s, t)
	if err != nil {
		return false, err
	}
	ae, err := p.AEnd.Eval(s, t)
	if err != nil {
		return false, err
	}
	bs, err := p.BStart.Eval(s, t)
	if err != nil {
		return false, err
	}
	be, err := p.BEnd.Eval(s, t)
	if err != nil {
		return false, err
	}
	as, ae, bs, be, err = coerceTimes(p.Op, as, ae, bs, be)
	if err != nil {
		return false, err
	}
	a := periodOf(as, ae)
	b := periodOf(bs, be)
	switch p.Op {
	case POverlaps:
		return a.Overlaps(b), nil
	case PContains:
		return a.ContainsPeriod(b), nil
	case PMeets:
		return a.Meets(b), nil
	default:
		return a.Precedes(b), nil
	}
}

// Attrs implements Pred.
func (p PeriodPred) Attrs(set map[string]bool) {
	p.AStart.Attrs(set)
	p.AEnd.Attrs(set)
	p.BStart.Attrs(set)
	p.BEnd.Attrs(set)
}

// String implements Pred.
func (p PeriodPred) String() string {
	return fmt.Sprintf("PERIOD(%s,%s) %s PERIOD(%s,%s)",
		p.AStart, p.AEnd, p.Op, p.BStart, p.BEnd)
}

// ConjList folds a list of predicates into a right-nested conjunction;
// an empty list yields TruePred.
func ConjList(ps []Pred) Pred {
	switch len(ps) {
	case 0:
		return TruePred{}
	case 1:
		return ps[0]
	default:
		return Conj(ps[0], ConjList(ps[1:]))
	}
}

// SplitConj splits a predicate into its top-level conjuncts; used by the
// selection-cascade rule P2.
func SplitConj(p Pred) []Pred {
	if a, ok := p.(And); ok {
		return append(SplitConj(a.L), SplitConj(a.R)...)
	}
	return []Pred{p}
}

// Package expr implements the scalar expressions, selection predicates and
// aggregate descriptors of the algebra.
//
// Rule preconditions in Section 4 of the paper use the function attr(),
// which returns the set of attributes used in a selection predicate or in
// projection functions (e.g., rule C3 requires T1 ∉ attr(P) ∧ T2 ∉ attr(P));
// every node here therefore reports its attribute set.
package expr

import (
	"fmt"
	"sort"

	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// Expr is a scalar expression evaluated against a tuple.
type Expr interface {
	// Eval computes the expression over t, which conforms to s.
	Eval(s *schema.Schema, t relation.Tuple) (value.Value, error)
	// Kind returns the expression's result domain under s.
	Kind(s *schema.Schema) (value.Kind, error)
	// Attrs adds every attribute mentioned by the expression to set.
	Attrs(set map[string]bool)
	// String renders the expression.
	String() string
	// EqualExpr reports structural equality.
	EqualExpr(other Expr) bool
}

// Col references an attribute by name.
type Col struct{ Name string }

// Column returns a column reference expression.
func Column(name string) Col { return Col{Name: name} }

// Eval implements Expr.
func (c Col) Eval(s *schema.Schema, t relation.Tuple) (value.Value, error) {
	i := s.Index(c.Name)
	if i < 0 {
		return value.Value{}, fmt.Errorf("expr: unknown attribute %q in schema %s", c.Name, s)
	}
	return t[i], nil
}

// Kind implements Expr.
func (c Col) Kind(s *schema.Schema) (value.Kind, error) { return s.KindOf(c.Name) }

// Attrs implements Expr.
func (c Col) Attrs(set map[string]bool) { set[c.Name] = true }

// String implements Expr.
func (c Col) String() string { return c.Name }

// EqualExpr implements Expr.
func (c Col) EqualExpr(other Expr) bool {
	o, ok := other.(Col)
	return ok && o.Name == c.Name
}

// Lit is a literal value.
type Lit struct{ Val value.Value }

// Literal returns a literal expression.
func Literal(v value.Value) Lit { return Lit{Val: v} }

// Eval implements Expr.
func (l Lit) Eval(*schema.Schema, relation.Tuple) (value.Value, error) { return l.Val, nil }

// Kind implements Expr.
func (l Lit) Kind(*schema.Schema) (value.Kind, error) { return l.Val.Kind(), nil }

// Attrs implements Expr.
func (l Lit) Attrs(map[string]bool) {}

// String implements Expr.
func (l Lit) String() string {
	if l.Val.Kind() == value.KindString {
		return "'" + l.Val.String() + "'"
	}
	return l.Val.String()
}

// EqualExpr implements Expr.
func (l Lit) EqualExpr(other Expr) bool {
	o, ok := other.(Lit)
	return ok && o.Val.Equal(l.Val) && o.Val.Kind() == l.Val.Kind()
}

// ArithOp is an arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

func (op ArithOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	default:
		return "/"
	}
}

// Arith is a binary arithmetic expression over numeric or time operands.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval implements Expr.
func (a Arith) Eval(s *schema.Schema, t relation.Tuple) (value.Value, error) {
	lv, err := a.L.Eval(s, t)
	if err != nil {
		return value.Value{}, err
	}
	rv, err := a.R.Eval(s, t)
	if err != nil {
		return value.Value{}, err
	}
	// Time arithmetic: time ± int yields time; time - time yields int.
	if lv.Kind() == value.KindTime || rv.Kind() == value.KindTime {
		return evalTimeArith(a.Op, lv, rv)
	}
	if !lv.Numeric() || !rv.Numeric() {
		return value.Value{}, fmt.Errorf("expr: %s over non-numeric operands %s, %s", a.Op, lv.Kind(), rv.Kind())
	}
	if lv.Kind() == value.KindInt && rv.Kind() == value.KindInt && a.Op != Div {
		x, y := lv.AsInt(), rv.AsInt()
		switch a.Op {
		case Add:
			return value.Int(x + y), nil
		case Sub:
			return value.Int(x - y), nil
		case Mul:
			return value.Int(x * y), nil
		}
	}
	x, y := lv.NumericValue(), rv.NumericValue()
	switch a.Op {
	case Add:
		return value.Float(x + y), nil
	case Sub:
		return value.Float(x - y), nil
	case Mul:
		return value.Float(x * y), nil
	default:
		if y == 0 {
			return value.Value{}, fmt.Errorf("expr: division by zero")
		}
		return value.Float(x / y), nil
	}
}

func evalTimeArith(op ArithOp, lv, rv value.Value) (value.Value, error) {
	switch {
	case lv.Kind() == value.KindTime && rv.Kind() == value.KindInt:
		switch op {
		case Add:
			return value.Time(lv.AsTime() + period.Chronon(rv.AsInt())), nil
		case Sub:
			return value.Time(lv.AsTime() - period.Chronon(rv.AsInt())), nil
		}
	case lv.Kind() == value.KindTime && rv.Kind() == value.KindTime && op == Sub:
		return value.Int(int64(lv.AsTime() - rv.AsTime())), nil
	}
	return value.Value{}, fmt.Errorf("expr: unsupported time arithmetic %s %s %s", lv.Kind(), op, rv.Kind())
}

// Kind implements Expr.
func (a Arith) Kind(s *schema.Schema) (value.Kind, error) {
	lk, err := a.L.Kind(s)
	if err != nil {
		return value.KindInvalid, err
	}
	rk, err := a.R.Kind(s)
	if err != nil {
		return value.KindInvalid, err
	}
	switch {
	case lk == value.KindTime && rk == value.KindInt:
		return value.KindTime, nil
	case lk == value.KindTime && rk == value.KindTime && a.Op == Sub:
		return value.KindInt, nil
	case lk == value.KindInt && rk == value.KindInt && a.Op != Div:
		return value.KindInt, nil
	case (lk == value.KindInt || lk == value.KindFloat) && (rk == value.KindInt || rk == value.KindFloat):
		return value.KindFloat, nil
	}
	return value.KindInvalid, fmt.Errorf("expr: invalid arithmetic %s %s %s", lk, a.Op, rk)
}

// Attrs implements Expr.
func (a Arith) Attrs(set map[string]bool) {
	a.L.Attrs(set)
	a.R.Attrs(set)
}

// String implements Expr.
func (a Arith) String() string {
	return "(" + a.L.String() + " " + a.Op.String() + " " + a.R.String() + ")"
}

// EqualExpr implements Expr.
func (a Arith) EqualExpr(other Expr) bool {
	o, ok := other.(Arith)
	return ok && o.Op == a.Op && a.L.EqualExpr(o.L) && a.R.EqualExpr(o.R)
}

// AttrsOf returns the sorted attribute set of any Expr or Pred.
func AttrsOf(node interface{ Attrs(map[string]bool) }) []string {
	set := make(map[string]bool)
	node.Attrs(set)
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// UsesTime reports whether the node mentions either reserved time attribute —
// the precondition test "T1 ∉ attr(·) ∧ T2 ∉ attr(·)" of rules C3/C4. The
// planner asks it of every selection and projection item it infers
// properties for, so it walks the expression without building attr(·).
func UsesTime(node interface{ Attrs(map[string]bool) }) bool {
	switch n := node.(type) {
	case Col:
		return isTime(n.Name)
	case Lit, TruePred:
		return false
	case Arith:
		return UsesTime(n.L) || UsesTime(n.R)
	case Cmp:
		return UsesTime(n.L) || UsesTime(n.R)
	case And:
		return UsesTime(n.L) || UsesTime(n.R)
	case Or:
		return UsesTime(n.L) || UsesTime(n.R)
	case Not:
		return UsesTime(n.P)
	case PeriodPred:
		return UsesTime(n.AStart) || UsesTime(n.AEnd) || UsesTime(n.BStart) || UsesTime(n.BEnd)
	case Aggregate:
		return n.Func != CountAll && isTime(n.Arg)
	}
	set := make(map[string]bool)
	node.Attrs(set)
	return set[schema.T1] || set[schema.T2]
}

func isTime(attr string) bool { return attr == schema.T1 || attr == schema.T2 }

package expr

import (
	"strings"
	"testing"

	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

func testSchema() *schema.Schema {
	return schema.MustNew(
		schema.Attr("Name", value.KindString),
		schema.Attr("Grp", value.KindInt),
		schema.Attr("Score", value.KindFloat),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime),
	)
}

func testTuple() relation.Tuple {
	return relation.NewTuple(
		value.String_("ada"), value.Int(3), value.Float(1.5),
		value.Time(2), value.Time(8))
}

func evalExpr(t *testing.T, e Expr) value.Value {
	t.Helper()
	v, err := e.Eval(testSchema(), testTuple())
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return v
}

func TestColumnAndLiteral(t *testing.T) {
	if got := evalExpr(t, Column("Grp")); got.AsInt() != 3 {
		t.Errorf("Grp = %v", got)
	}
	if got := evalExpr(t, Literal(value.Int(9))); got.AsInt() != 9 {
		t.Errorf("literal = %v", got)
	}
	if _, err := Column("missing").Eval(testSchema(), testTuple()); err == nil {
		t.Error("missing column should fail")
	}
	if k, _ := Column("Score").Kind(testSchema()); k != value.KindFloat {
		t.Error("column kind")
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		e    Expr
		want value.Value
	}{
		{Arith{Op: Add, L: Column("Grp"), R: Literal(value.Int(2))}, value.Int(5)},
		{Arith{Op: Sub, L: Column("Grp"), R: Literal(value.Int(1))}, value.Int(2)},
		{Arith{Op: Mul, L: Column("Grp"), R: Column("Grp")}, value.Int(9)},
		{Arith{Op: Div, L: Literal(value.Int(7)), R: Literal(value.Int(2))}, value.Float(3.5)},
		{Arith{Op: Add, L: Column("Score"), R: Literal(value.Int(1))}, value.Float(2.5)},
		// Time arithmetic: T2 - T1 = duration; T1 + 3 = instant.
		{Arith{Op: Sub, L: Column("T2"), R: Column("T1")}, value.Int(6)},
		{Arith{Op: Add, L: Column("T1"), R: Literal(value.Int(3))}, value.Time(5)},
	}
	for _, c := range cases {
		if got := evalExpr(t, c.e); !got.Equal(c.want) || got.Kind() != c.want.Kind() {
			t.Errorf("%s = %v (%v), want %v (%v)", c.e, got, got.Kind(), c.want, c.want.Kind())
		}
	}
	if _, err := (Arith{Op: Div, L: Column("Grp"), R: Literal(value.Int(0))}).Eval(testSchema(), testTuple()); err == nil {
		t.Error("division by zero should fail")
	}
	if _, err := (Arith{Op: Add, L: Column("Name"), R: Literal(value.Int(1))}).Eval(testSchema(), testTuple()); err == nil {
		t.Error("string arithmetic should fail")
	}
}

func TestPredicates(t *testing.T) {
	grpLt5 := Compare(Lt, Column("Grp"), Literal(value.Int(5)))
	grpGt5 := Compare(Gt, Column("Grp"), Literal(value.Int(5)))
	cases := []struct {
		p    Pred
		want bool
	}{
		{grpLt5, true},
		{grpGt5, false},
		{Compare(Eq, Column("Name"), Literal(value.String_("ada"))), true},
		{Compare(Ne, Column("Name"), Literal(value.String_("bob"))), true},
		{Compare(Le, Column("Grp"), Literal(value.Int(3))), true},
		{Compare(Ge, Column("Grp"), Literal(value.Int(4))), false},
		{Conj(grpLt5, grpGt5), false},
		{Disj(grpLt5, grpGt5), true},
		{Neg(grpGt5), true},
		{TruePred{}, true},
	}
	for _, c := range cases {
		got, err := c.p.Holds(testSchema(), testTuple())
		if err != nil {
			t.Fatalf("%s: %v", c.p, err)
		}
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPeriodPredicates(t *testing.T) {
	// Tuple period is [2,8).
	pp := func(op PeriodOp, s, e int64) PeriodPred {
		return PeriodPred{
			Op:     op,
			AStart: Column("T1"), AEnd: Column("T2"),
			BStart: Literal(value.Int(s)), BEnd: Literal(value.Int(e)),
		}
	}
	cases := []struct {
		p    Pred
		want bool
	}{
		{pp(POverlaps, 7, 10), true},
		{pp(POverlaps, 8, 10), false},
		{pp(PContains, 3, 5), true},
		{pp(PContains, 1, 5), false},
		{pp(PMeets, 8, 10), true},
		{pp(PPrecedes, 9, 12), true},
		{pp(PPrecedes, 5, 12), false},
	}
	for _, c := range cases {
		got, err := c.p.Holds(testSchema(), testTuple())
		if err != nil {
			t.Fatalf("%s: %v", c.p, err)
		}
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.p, got, c.want)
		}
	}
	bad := PeriodPred{Op: POverlaps,
		AStart: Column("Name"), AEnd: Column("T2"),
		BStart: Column("T1"), BEnd: Column("T2")}
	if _, err := bad.Holds(testSchema(), testTuple()); err == nil {
		t.Error("non-time operand should fail")
	}
}

func TestAttrsAndUsesTime(t *testing.T) {
	p := Conj(
		Compare(Lt, Column("Grp"), Literal(value.Int(5))),
		Compare(Ge, Column("T1"), Literal(value.Time(2))))
	attrs := AttrsOf(p)
	if len(attrs) != 2 || attrs[0] != "Grp" || attrs[1] != "T1" {
		t.Errorf("AttrsOf = %v", attrs)
	}
	if !UsesTime(p) {
		t.Error("predicate uses T1")
	}
	q := Compare(Eq, Column("Name"), Literal(value.String_("x")))
	if UsesTime(q) {
		t.Error("q does not use time attributes")
	}
}

// TestUsesTimeWalksWithoutAllocating: UsesTime agrees with attr(·) on every
// expression, predicate and aggregate shape, and answers without
// allocating — the planner asks it on every property inference.
func TestUsesTimeWalksWithoutAllocating(t *testing.T) {
	grp, t1, t2 := Column("Grp"), Column(schema.T1), Column(schema.T2)
	five := Literal(value.Int(5))
	nodes := []interface{ Attrs(map[string]bool) }{
		grp, t1, t2, five,
		Arith{Op: Add, L: grp, R: five},
		Arith{Op: Sub, L: five, R: t2},
		Compare(Lt, grp, five),
		Compare(Ge, t1, five),
		Conj(Compare(Lt, grp, five), Compare(Ge, t1, five)),
		Disj(Compare(Lt, grp, five), Compare(Eq, Column("Name"), Literal(value.String_("x")))),
		Neg(Compare(Eq, t2, five)),
		TruePred{},
		PeriodPred{Op: POverlaps, AStart: t1, AEnd: t2, BStart: five, BEnd: five},
		PeriodPred{Op: PMeets, AStart: five, AEnd: five, BStart: five, BEnd: five},
		Aggregate{Func: Max, Arg: schema.T1, As: "m"},
		Aggregate{Func: Sum, Arg: "Grp", As: "s"},
		Aggregate{Func: CountAll, As: "n"},
	}
	for _, n := range nodes {
		set := make(map[string]bool)
		n.Attrs(set)
		want := set[schema.T1] || set[schema.T2]
		if got := UsesTime(n); got != want {
			t.Errorf("UsesTime(%v) = %v, attr(·) says %v", n, got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { UsesTime(n) }); allocs != 0 {
			t.Errorf("UsesTime(%v) allocates %.0f times", n, allocs)
		}
	}
}

func TestSubstitution(t *testing.T) {
	env := map[string]Expr{"Grp": Arith{Op: Add, L: Column("Score"), R: Literal(value.Int(1))}}
	e, err := SubstExpr(Arith{Op: Mul, L: Column("Grp"), R: Literal(value.Int(2))}, env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Eval(testSchema(), testTuple())
	if err != nil {
		t.Fatal(err)
	}
	if got.AsFloat() != 5.0 { // (1.5+1)*2
		t.Errorf("substituted expression = %v", got)
	}

	p, err := SubstPred(Compare(Gt, Column("Grp"), Literal(value.Int(4))), env)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := p.Holds(testSchema(), testTuple())
	if err != nil {
		t.Fatal(err)
	}
	if ok { // 2.5 > 4 is false
		t.Error("substituted predicate")
	}

	r, err := RenamePred(Compare(Eq, Column("Grp"), Column("Grp")), map[string]string{"Grp": "Score"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.String(), "Score") {
		t.Errorf("rename: %s", r)
	}
}

func TestConjSplitRoundTrip(t *testing.T) {
	a := Compare(Lt, Column("Grp"), Literal(value.Int(5)))
	b := Compare(Gt, Column("Grp"), Literal(value.Int(1)))
	c := TruePred{}
	folded := ConjList([]Pred{a, b, c})
	parts := SplitConj(folded)
	if len(parts) != 3 {
		t.Fatalf("SplitConj = %d parts", len(parts))
	}
	if !parts[0].EqualPred(a) || !parts[1].EqualPred(b) || !parts[2].EqualPred(c) {
		t.Error("round trip broke predicate identity")
	}
	if !ConjList(nil).EqualPred(TruePred{}) {
		t.Error("empty conjunction is TRUE")
	}
}

func TestAggregates(t *testing.T) {
	s := testSchema()
	cases := []struct {
		agg  Aggregate
		vals []value.Value
		want value.Value
	}{
		{Aggregate{Func: CountAll, As: "c"}, []value.Value{value.Int(1), value.Int(1)}, value.Int(2)},
		{Aggregate{Func: Sum, Arg: "Grp", As: "s"}, []value.Value{value.Int(2), value.Int(3)}, value.Int(5)},
		{Aggregate{Func: Avg, Arg: "Grp", As: "a"}, []value.Value{value.Int(2), value.Int(4)}, value.Float(3)},
		{Aggregate{Func: Min, Arg: "Grp", As: "m"}, []value.Value{value.Int(4), value.Int(2)}, value.Int(2)},
		{Aggregate{Func: Max, Arg: "Grp", As: "M"}, []value.Value{value.Int(4), value.Int(9)}, value.Int(9)},
	}
	for _, c := range cases {
		isInt := true
		acc := NewAccumulator(c.agg.Func, isInt)
		for _, v := range c.vals {
			acc.Add(v)
		}
		if got := acc.Result(); !got.Equal(c.want) {
			t.Errorf("%s = %v, want %v", c.agg, got, c.want)
		}
		if _, err := c.agg.ResultKind(s); err != nil {
			t.Errorf("%s: ResultKind: %v", c.agg, err)
		}
	}
	if !(Min).DuplicateInsensitive() || (Sum).DuplicateInsensitive() {
		t.Error("DuplicateInsensitive")
	}
	bad := Aggregate{Func: Sum, Arg: "Name", As: "s"}
	if _, err := bad.ResultKind(s); err == nil {
		t.Error("SUM over a string should fail")
	}
}

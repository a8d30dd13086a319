package eval_test

import (
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/equiv"
	"tqp/internal/eval"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// figure3Input builds R1 = π_{EmpName,T1,T2}(EMPLOYEE) of Figure 3.
func figure3Input(t *testing.T) (*eval.Evaluator, algebra.Node) {
	t.Helper()
	c := catalog.Paper()
	return eval.New(c), catalog.PaperProjection(c.MustNode("EMPLOYEE"))
}

func mustEval(t *testing.T, e *eval.Evaluator, n algebra.Node) *relation.Relation {
	t.Helper()
	r, err := e.Eval(n)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	return r
}

func wantRows(t *testing.T, got *relation.Relation, s *schema.Schema, rows [][]any) {
	t.Helper()
	want := relation.MustFromRows(s, rows)
	if !got.Schema().Equal(s) {
		t.Fatalf("schema = %s, want %s", got.Schema(), s)
	}
	if !got.EqualAsList(want) {
		t.Fatalf("result:\n%s\nwant:\n%s", got, want)
	}
}

// TestFigure3R1 pins the projected EMPLOYEE relation R1 exactly.
func TestFigure3R1(t *testing.T) {
	e, r1 := figure3Input(t)
	got := mustEval(t, e, r1)
	s := schema.MustNew(
		schema.Attr("EmpName", value.KindString),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime))
	wantRows(t, got, s, [][]any{
		{"John", 1, 8},
		{"John", 6, 11},
		{"Anna", 2, 6},
		{"Anna", 2, 6},
		{"Anna", 6, 12},
	})
	if !got.Temporal() {
		t.Error("R1 must be temporal")
	}
	if got.IsCoalesced() {
		t.Error("R1 is not coalesced: Anna's [2,6) and [6,12) are adjacent")
	}
	if !got.HasSnapshotDuplicates() {
		t.Error("R1 has temporal duplicates: John at time 6")
	}
}

// TestFigure3R2 pins R2 = rdup(R1): one Anna [2,6) tuple removed, time
// attributes renamed 1.T1/1.T2 because the result of regular duplicate
// elimination is a snapshot relation.
func TestFigure3R2(t *testing.T) {
	e, r1 := figure3Input(t)
	got := mustEval(t, e, algebra.NewRdup(r1))
	s := schema.MustNew(
		schema.Attr("EmpName", value.KindString),
		schema.Attr("1.T1", value.KindTime),
		schema.Attr("1.T2", value.KindTime))
	wantRows(t, got, s, [][]any{
		{"John", 1, 8},
		{"John", 6, 11},
		{"Anna", 2, 6},
		{"Anna", 6, 12},
	})
	if got.Temporal() {
		t.Error("R2 must be a snapshot relation")
	}
}

// TestFigure3R3 pins R3 = rdupᵀ(R1): John's second period is cut to [8,11)
// and Anna's duplicate [2,6) disappears, exactly the paper's relation.
func TestFigure3R3(t *testing.T) {
	e, r1 := figure3Input(t)
	got := mustEval(t, e, algebra.NewTRdup(r1))
	s := schema.MustNew(
		schema.Attr("EmpName", value.KindString),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime))
	wantRows(t, got, s, [][]any{
		{"John", 1, 8},
		{"John", 8, 11},
		{"Anna", 2, 6},
		{"Anna", 6, 12},
	})
	if got.HasSnapshotDuplicates() {
		t.Error("R3 must be free of duplicates in snapshots")
	}
}

// TestFigure3Equivalences pins Section 3's worked equivalence claims:
// R1 ≡S R2 only (ignoring snapshot types, undefined across temporal and
// snapshot relations), and R1 ≡SS R3 only.
func TestFigure3Equivalences(t *testing.T) {
	e, r1n := figure3Input(t)
	r1 := mustEval(t, e, r1n)
	r3 := mustEval(t, e, algebra.NewTRdup(r1n))

	for _, c := range []struct {
		typ  equiv.Type
		want bool
	}{
		{equiv.List, false},
		{equiv.Multiset, false},
		{equiv.Set, false},
		{equiv.SnapshotList, false},
		{equiv.SnapshotMultiset, false},
		{equiv.SnapshotSet, true},
	} {
		got, err := equiv.Check(c.typ, r1, r3)
		if err != nil {
			t.Fatalf("Check(%s): %v", c.typ, err)
		}
		if got != c.want {
			t.Errorf("R1 %s R3 = %v, want %v", c.typ, got, c.want)
		}
	}

	// R2 has a different (snapshot) schema; the paper compares tuple
	// content: R1 and R2 hold the same tuples as sets. We verify via the
	// renamed schema: rebuild R2 under the temporal schema.
	r2 := mustEval(t, e, algebra.NewRdup(r1n))
	r2t := relation.FromTuplesTrusted(r1.Schema(), r2.Tuples())
	for _, c := range []struct {
		typ  equiv.Type
		want bool
	}{
		{equiv.List, false},
		{equiv.Multiset, false},
		{equiv.Set, true},
	} {
		got, err := equiv.Check(c.typ, r1, r2t)
		if err != nil {
			t.Fatalf("Check(%s): %v", c.typ, err)
		}
		if got != c.want {
			t.Errorf("R1 %s R2 = %v, want %v", c.typ, got, c.want)
		}
	}
}

func resultSchema() *schema.Schema {
	return schema.MustNew(
		schema.Attr("EmpName", value.KindString),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime))
}

// TestFigure1ResultInitialPlan evaluates the initial plan of Figure 2(a)
// and pins the exact Result relation of Figure 1.
func TestFigure1ResultInitialPlan(t *testing.T) {
	c := catalog.Paper()
	e := eval.New(c)
	got := mustEval(t, e, catalog.PaperInitialPlan(c))
	wantRows(t, got, resultSchema(), catalog.PaperResultRows())
	if got.HasSnapshotDuplicates() {
		t.Error("result must be snapshot-duplicate-free")
	}
	if !got.IsCoalesced() {
		t.Error("result must be coalesced")
	}
	if !got.SortedBy(relation.OrderSpec{relation.Key("EmpName")}) {
		t.Error("result must be sorted by EmpName")
	}
}

// TestFigure1ResultAcrossPlans evaluates the intermediate (Figure 6(a)) and
// optimized (Figure 6(b)) plans; all three must produce the same list here,
// and in general must be ≡SQL-equivalent for a list result ordered by
// EmpName.
func TestFigure1ResultAcrossPlans(t *testing.T) {
	c := catalog.Paper()
	e := eval.New(c)
	initial := mustEval(t, e, catalog.PaperInitialPlan(c))
	mid := mustEval(t, e, catalog.PaperIntermediatePlan(c))
	final := mustEval(t, e, catalog.PaperOptimizedPlan(c))

	wantRows(t, mid, resultSchema(), catalog.PaperResultRows())
	wantRows(t, final, resultSchema(), catalog.PaperResultRows())

	orderBy := relation.OrderSpec{relation.Key("EmpName")}
	for name, r := range map[string]*relation.Relation{"6(a)": mid, "6(b)": final} {
		ok, err := equiv.CheckSQL(equiv.ResultList, orderBy, initial, r)
		if err != nil {
			t.Fatalf("CheckSQL(%s): %v", name, err)
		}
		if !ok {
			t.Errorf("plan %s is not ≡SQL to the initial plan", name)
		}
	}

	// The optimized plan needs no final sort: the temporal difference
	// retains its left argument's EmpName order.
	if !final.SortedBy(orderBy) {
		t.Error("optimized plan's result must arrive sorted by EmpName")
	}
}

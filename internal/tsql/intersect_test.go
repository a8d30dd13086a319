package tsql_test

import (
	"slices"
	"testing"

	"tqp/internal/catalog"
	"tqp/internal/equiv"
	"tqp/internal/eval"
	"tqp/internal/relation"
	"tqp/internal/tsql"
)

// TestIntersectNonsequenced: multiset intersection via the derived form
// l \ (l \ r).
func TestIntersectNonsequenced(t *testing.T) {
	c := catalog.Paper()
	q, err := tsql.Parse("SELECT EmpName FROM EMPLOYEE INTERSECT SELECT EmpName FROM PROJECT")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := q.Plan(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eval.New(c).Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	// EMPLOYEE names (with time attrs projected away... here only EmpName,
	// nonsequenced, so T1/T2 are dropped): {John×2, Anna×3};
	// PROJECT names: {John×4, Anna×4}; min-multiset: John×2, Anna×3.
	if got.Len() != 5 {
		t.Fatalf("intersection cardinality %d, want 5 (min multiplicities):\n%s", got.Len(), got)
	}
	counts := map[string]int{}
	for _, tp := range got.Tuples() {
		counts[tp[0].AsString()]++
	}
	if counts["John"] != 2 || counts["Anna"] != 3 {
		t.Errorf("counts = %v, want John:2 Anna:3", counts)
	}
}

// TestIntersectSequenced: per-instant minimum via l \ᵀ (l \ᵀ r) — an
// employee is in the intersection exactly while present in both relations.
func TestIntersectSequenced(t *testing.T) {
	c := catalog.Paper()
	q, err := tsql.Parse(`VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE
		INTERSECT SELECT EmpName FROM PROJECT ORDER BY EmpName`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := q.Plan(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eval.New(c).Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	// The complement of the paper's EXCEPT query within the employee
	// history: dept time minus the Result periods. Anna works on projects
	// over [3,4) ∪ [5,6) ∪ [7,8) ∪ [9,10); John over [2,3) ∪ [5,6) ∪ [7,8)
	// ∪ [9,10) — all within their employment.
	want := relation.MustFromRows(got.Schema(), [][]any{
		{"Anna", 3, 4},
		{"Anna", 5, 6},
		{"Anna", 7, 8},
		{"Anna", 9, 10},
		{"John", 2, 3},
		{"John", 5, 6},
		{"John", 7, 8},
		{"John", 9, 10},
	})
	ok, err := equiv.CheckSQL(equiv.ResultList, relation.OrderSpec{relation.Key("EmpName")}, want, got)
	if err != nil || !ok {
		t.Errorf("sequenced intersection (err=%v):\n%s\nwant\n%s", err, got, want)
	}
}

// TestIntersectWithExceptComplement: sequenced INTERSECT and EXCEPT
// partition the employee history — together they rebuild rdupᵀ(π(EMPLOYEE))
// snapshot-wise.
func TestIntersectWithExceptComplement(t *testing.T) {
	c := catalog.Paper()
	run := func(sql string) *relation.Relation {
		t.Helper()
		q, err := tsql.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := q.Plan(c)
		if err != nil {
			t.Fatal(err)
		}
		r, err := eval.New(c).Eval(plan)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	inter := run(`VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE INTERSECT SELECT EmpName FROM PROJECT`)
	except := run(`VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE EXCEPT SELECT EmpName FROM PROJECT`)
	whole := run(`VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE`)

	union := relation.FromTuplesTrusted(whole.Schema(), slices.Concat(inter.Tuples(), except.Tuples()))
	ok, err := equiv.Check(equiv.SnapshotSet, whole, union)
	if err != nil || !ok {
		t.Errorf("INTERSECT ∪ EXCEPT must cover the whole history (err=%v):\n%s\nvs\n%s",
			err, union, whole)
	}
}

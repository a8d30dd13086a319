package tsql_test

import (
	"strings"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/equiv"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/tsql"
)

// PaperQueryText is the running example as a user-level statement: "Which
// employees worked in a department, but not on any project, and when?" —
// result sorted, coalesced, and without duplicates in its snapshots.
const PaperQueryText = `
	VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE
	EXCEPT SELECT EmpName FROM PROJECT
	ORDER BY EmpName ASC`

// TestPaperQueryMapsToFigure2a: the straightforward mapping of the
// user-level query must produce exactly the initial algebra expression of
// Figure 2(a).
func TestPaperQueryMapsToFigure2a(t *testing.T) {
	c := catalog.Paper()
	q, err := tsql.Parse(PaperQueryText)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	plan, err := q.Plan(c)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	want := algebra.Canonical(catalog.PaperInitialPlan(c))
	if got := algebra.Canonical(plan); got != want {
		t.Errorf("initial plan:\n%s\nwant:\n%s", got, want)
	}
	if rt := q.ResultType(); rt != equiv.ResultList {
		t.Errorf("ResultType = %s, want list (ORDER BY present)", rt)
	}
	if !q.OrderBy().Equal(relation.OrderSpec{relation.Key("EmpName")}) {
		t.Errorf("OrderBy = %s", q.OrderBy())
	}
	if !q.ValidTime() {
		t.Error("query must be sequenced")
	}
}

// TestPaperQueryEvaluates end-to-end: parse → plan → evaluate → Figure 1's
// Result.
func TestPaperQueryEvaluates(t *testing.T) {
	c := catalog.Paper()
	q, err := tsql.Parse(PaperQueryText)
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
	want := relation.MustFromRows(got.Schema(), catalog.PaperResultRows())
	if !got.EqualAsList(want) {
		t.Errorf("result:\n%s\nwant:\n%s", got, want)
	}
}

func TestResultTypes(t *testing.T) {
	cases := []struct {
		sql  string
		want equiv.ResultType
	}{
		{"SELECT EmpName FROM EMPLOYEE", equiv.ResultMultiset},
		{"SELECT DISTINCT EmpName FROM EMPLOYEE", equiv.ResultSet},
		{"SELECT DISTINCT EmpName FROM EMPLOYEE ORDER BY EmpName", equiv.ResultList},
		{"SELECT EmpName FROM EMPLOYEE ORDER BY EmpName DESC", equiv.ResultList},
	}
	for _, cse := range cases {
		q, err := tsql.Parse(cse.sql)
		if err != nil {
			t.Fatalf("%s: %v", cse.sql, err)
		}
		if got := q.ResultType(); got != cse.want {
			t.Errorf("%s: result type %s, want %s", cse.sql, got, cse.want)
		}
	}
}

func TestNonsequencedStatements(t *testing.T) {
	c := catalog.Paper()
	cases := []string{
		"SELECT * FROM EMPLOYEE",
		"SELECT EmpName, Dept FROM EMPLOYEE WHERE T1 >= 2 AND T2 <= 11",
		"SELECT DISTINCT EmpName FROM EMPLOYEE UNION SELECT EmpName FROM PROJECT",
		"SELECT EmpName FROM EMPLOYEE UNION ALL SELECT EmpName FROM PROJECT",
		"SELECT EmpName FROM EMPLOYEE EXCEPT SELECT EmpName FROM PROJECT",
		"SELECT EmpName, COUNT(*) AS spells FROM EMPLOYEE GROUP BY EmpName",
		"SELECT Dept, MIN(T1) AS first, MAX(T2) AS last FROM EMPLOYEE GROUP BY Dept",
		"SELECT 1.EmpName FROM EMPLOYEE, PROJECT WHERE 1.EmpName = 2.EmpName",
		"SELECT EmpName FROM EMPLOYEE WHERE PERIOD(T1, T2) OVERLAPS PERIOD(2, 6)",
		"SELECT EmpName FROM EMPLOYEE WHERE NOT (Dept = 'Sales' OR Dept = 'Advertising')",
		"SELECT EmpName, T2 - T1 AS months FROM EMPLOYEE ORDER BY EmpName, months DESC",
	}
	for _, sql := range cases {
		q, err := tsql.Parse(sql)
		if err != nil {
			t.Fatalf("%s: parse: %v", sql, err)
		}
		plan, err := q.Plan(c)
		if err != nil {
			t.Fatalf("%s: plan: %v", sql, err)
		}
		if _, err := eval.New(c).Eval(plan); err != nil {
			t.Fatalf("%s: eval: %v", sql, err)
		}
	}
}

func TestSequencedStatements(t *testing.T) {
	c := catalog.Paper()
	cases := []string{
		"VALIDTIME SELECT EmpName FROM EMPLOYEE",
		"VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE",
		"VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE",
		"VALIDTIME SELECT EmpName FROM EMPLOYEE UNION SELECT EmpName FROM PROJECT",
		"VALIDTIME SELECT 1.EmpName FROM EMPLOYEE, PROJECT WHERE 1.EmpName = 2.EmpName",
		"VALIDTIME SELECT EmpName, COUNT(*) AS staffed FROM EMPLOYEE GROUP BY EmpName",
	}
	for _, sql := range cases {
		q, err := tsql.Parse(sql)
		if err != nil {
			t.Fatalf("%s: parse: %v", sql, err)
		}
		plan, err := q.Plan(c)
		if err != nil {
			t.Fatalf("%s: plan: %v", sql, err)
		}
		r, err := eval.New(c).Eval(plan)
		if err != nil {
			t.Fatalf("%s: eval: %v", sql, err)
		}
		if !r.Temporal() {
			t.Errorf("%s: sequenced result must be temporal, got %s", sql, r.Schema())
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELECT",
		"SELECT FROM EMPLOYEE",
		"SELECT EmpName EMPLOYEE",
		"SELECT EmpName FROM",
		"SELECT EmpName FROM EMPLOYEE WHERE",
		"SELECT EmpName FROM EMPLOYEE ORDER EmpName",
		"SELECT EmpName FROM EMPLOYEE trailing garbage",
		"SELECT SUM(*) FROM EMPLOYEE",
		"SELECT EmpName FROM EMPLOYEE WHERE 'open string",
		"SELECT EmpName FROM EMPLOYEE WHERE EmpName ! 3",
	}
	for _, sql := range cases {
		if _, err := tsql.Parse(sql); err == nil {
			t.Errorf("%q: expected a parse error", sql)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	c := catalog.Paper()
	cases := []struct {
		sql     string
		errPart string
	}{
		{"SELECT COALESCED EmpName FROM EMPLOYEE", "COALESCED requires"},
		{"SELECT Unknown FROM EMPLOYEE", "Unknown"},
		{"SELECT EmpName FROM NOSUCH", "NOSUCH"},
		{"SELECT EmpName, COUNT(*) AS c FROM EMPLOYEE GROUP BY Dept", "GROUP BY"},
	}
	for _, cse := range cases {
		q, err := tsql.Parse(cse.sql)
		if err != nil {
			t.Fatalf("%s: parse: %v", cse.sql, err)
		}
		_, err = q.Plan(c)
		if err == nil || !strings.Contains(err.Error(), cse.errPart) {
			t.Errorf("%s: error %v, want mention of %q", cse.sql, err, cse.errPart)
		}
	}
}

// TestTimeAttributeAgainstIntegerLiteral is the regression for predicates
// that compare a time attribute with an integer literal: the literal is a
// chronon, on either side of the comparison. Values of different kinds
// compare by domain rank, so before the fix "T1 >= 5" kept every row and
// "T1 = 2" none — on every engine alike, which no differential could see.
// The expected counts come from Figure 1's rows, read off the catalog in
// plain Go.
func TestTimeAttributeAgainstIntegerLiteral(t *testing.T) {
	c := catalog.Paper()
	cases := []struct {
		rel, where string
		keep       func(t1 period.Chronon) bool
	}{
		{"EMPLOYEE", "T1 >= 5", func(t1 period.Chronon) bool { return t1 >= 5 }}, // 2 of 5 rows
		{"EMPLOYEE", "T1 = 2", func(t1 period.Chronon) bool { return t1 == 2 }},  // 2 of 5
		{"PROJECT", "T1 = 2", func(t1 period.Chronon) bool { return t1 == 2 }},   // 1 of 8
		{"EMPLOYEE", "5 <= T1", func(t1 period.Chronon) bool { return 5 <= t1 }}, // the literal on the left
		{"PROJECT", "NOT (T1 <> 9 AND 3 < T1) OR T1 = 5", func(t1 period.Chronon) bool { return !(t1 != 9 && 3 < t1) || t1 == 5 }},
	}
	for _, tc := range cases {
		sql := "SELECT * FROM " + tc.rel + " WHERE " + tc.where
		r, err := c.Resolve(tc.rel)
		if err != nil {
			t.Fatal(err)
		}
		t1, _ := r.Schema().TimeIndices()
		want := 0
		for _, tu := range r.Tuples() {
			if tc.keep(tu[t1].AsTime()) {
				want++
			}
		}
		if want == 0 || want == r.Len() {
			t.Fatalf("%s: vacuous case, the oracle keeps %d of %d rows", sql, want, r.Len())
		}
		q, err := tsql.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		plan, err := q.Plan(c)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		for name, eng := range map[string]eval.Engine{"reference": eval.New(c), "exec": exec.New(c)} {
			got, err := eng.Eval(plan)
			if err != nil {
				t.Fatalf("%s on %s: %v", sql, name, err)
			}
			if got.Len() != want {
				t.Errorf("%s on %s: %d rows, want %d\n%s", sql, name, got.Len(), want, got)
			}
		}
	}
}

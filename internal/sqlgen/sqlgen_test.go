package sqlgen_test

import (
	"strings"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/expr"
	"tqp/internal/relation"
	"tqp/internal/sqlgen"
	"tqp/internal/value"
)

func TestConventionalSQL(t *testing.T) {
	c := catalog.Paper()
	emp := func() algebra.Node { return c.MustNode("EMPLOYEE") }
	prj := func() algebra.Node { return c.MustNode("PROJECT") }
	pred := expr.Compare(expr.Eq, expr.Column("Dept"), expr.Literal(value.String_("Sales")))
	aggs := []expr.Aggregate{{Func: expr.CountAll, As: "cnt"}}
	cases := []struct {
		name string
		plan algebra.Node
		want []string
	}{
		{"rel", emp(), []string{"SELECT * FROM EMPLOYEE"}},
		{"select", algebra.NewSelect(pred, emp()), []string{"WHERE Dept = 'Sales'"}},
		{"project", algebra.NewProjectCols(emp(), "EmpName", "T1", "T2"),
			[]string{"SELECT EmpName, T1, T2 FROM EMPLOYEE"}},
		{"sort", algebra.NewSort(relation.OrderSpec{relation.KeyDesc("EmpName")}, emp()),
			[]string{"ORDER BY EmpName DESC"}},
		{"rdup", algebra.NewRdup(emp()), []string{"SELECT DISTINCT"}},
		{"aggregate", algebra.NewAggregate([]string{"Dept"}, aggs, emp()),
			[]string{"COUNT(*) AS cnt", "GROUP BY Dept"}},
		{"diff", algebra.NewDiff(catalog.PaperProjection(emp()), catalog.PaperProjection(emp())),
			[]string{"EXCEPT ALL"}},
		{"unionall", algebra.NewUnionAll(emp(), emp()), []string{"UNION ALL"}},
		{"product", algebra.NewProduct(algebra.NewProjectCols(emp(), "Dept"), algebra.NewProjectCols(prj(), "Prj")),
			[]string{"CROSS JOIN"}},
		{"join", algebra.NewJoin(
			expr.Compare(expr.Eq, expr.Column("1.EmpName"), expr.Column("2.EmpName")), emp(), prj()),
			[]string{"JOIN", "ON 1.EmpName = 2.EmpName"}},
	}
	for _, cse := range cases {
		sql, err := sqlgen.Generate(cse.plan)
		if err != nil {
			t.Fatalf("%s: %v", cse.name, err)
		}
		for _, want := range cse.want {
			if !strings.Contains(sql, want) {
				t.Errorf("%s: SQL missing %q:\n%s", cse.name, want, sql)
			}
		}
	}
}

func TestTemporalSQLAnnotated(t *testing.T) {
	c := catalog.Paper()
	emp := catalog.PaperProjection(c.MustNode("EMPLOYEE"))
	prj := catalog.PaperProjection(c.MustNode("PROJECT"))
	cases := []struct {
		name string
		plan algebra.Node
		want []string
	}{
		{"tproduct", algebra.NewTProduct(emp, prj), []string{"GREATEST", "LEAST", "l.T1 < r.T2"}},
		{"tdiff", algebra.NewTDiff(emp, prj), []string{"temporal difference", "NOT EXISTS"}},
		{"trdup", algebra.NewTRdup(emp), []string{"temporal duplicate elimination"}},
		{"coal", algebra.NewCoal(emp), []string{"Böhlen", "adjacent"}},
		{"tunion", algebra.NewTUnion(emp, prj), []string{"temporal union", "UNION ALL"}},
	}
	for _, cse := range cases {
		sql, err := sqlgen.Generate(cse.plan)
		if err != nil {
			t.Fatalf("%s: %v", cse.name, err)
		}
		for _, want := range cse.want {
			if !strings.Contains(sql, want) {
				t.Errorf("%s: SQL missing %q:\n%s", cse.name, want, sql)
			}
		}
	}
}

func TestTransfersRejected(t *testing.T) {
	c := catalog.Paper()
	plan := algebra.NewTransferS(c.MustNode("EMPLOYEE"))
	if _, err := sqlgen.Generate(plan); err == nil {
		t.Error("a transfer inside a DBMS subplan has no SQL form")
	}
}

func TestQualifiedIdentifiersQuoted(t *testing.T) {
	c := catalog.Paper()
	plan := algebra.NewSort(relation.OrderSpec{relation.Key("1.T1")},
		algebra.NewRdup(c.MustNode("EMPLOYEE")))
	sql, err := sqlgen.Generate(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, `"1.T1"`) {
		t.Errorf("qualified identifier must be quoted:\n%s", sql)
	}
}

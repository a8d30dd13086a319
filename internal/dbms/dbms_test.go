package dbms_test

import (
	"strings"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/dbms"
	"tqp/internal/equiv"
	"tqp/internal/eval"
	"tqp/internal/expr"
	"tqp/internal/props"
	"tqp/internal/relation"
	"tqp/internal/stratum"
	"tqp/internal/value"
)

// TestSortOverSortOrder: inside the DBMS only the top sort's ORDER BY is
// guaranteed (Section 4.5), so a sort over a sort on a longer spec delivers
// the outer spec alone. The static state of the DBMS-site sort and of the
// TS above it must say so too, and equal what Execute annotates.
func TestSortOverSortOrder(t *testing.T) {
	c := catalog.Paper()
	byDept := relation.OrderSpec{relation.Key("Dept")}
	sub := algebra.NewSort(byDept,
		algebra.NewSort(relation.OrderSpec{relation.Key("Dept"), relation.Key("EmpName")}, c.MustNode("EMPLOYEE")))
	plan := algebra.NewTransferS(sub)
	st, err := props.InferStates(plan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dbms.New(c, 3).Execute(sub)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rel.Order().Equal(byDept) {
		t.Errorf("Execute annotates %s, want %s", res.Rel.Order(), byDept)
	}
	for _, n := range []algebra.Node{plan, sub} {
		if got := st[n].Order; !got.Equal(res.Rel.Order()) {
			t.Errorf("static order of %s is %s, the DBMS delivers %s", n.Label(), got, res.Rel.Order())
		}
	}
}

func TestMultisetFidelity(t *testing.T) {
	c := catalog.Paper()
	sub := algebra.NewSelect(
		expr.Compare(expr.Eq, expr.Column("Dept"), expr.Literal(value.String_("Sales"))),
		c.MustNode("EMPLOYEE"))
	want, err := eval.New(c).Eval(sub)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dbms.New(c, 5).Execute(sub)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := equiv.Check(equiv.Multiset, want, res.Rel)
	if err != nil || !ok {
		t.Errorf("DBMS execution must be multiset-faithful:\n%s\nvs\n%s", res.Rel, want)
	}
}

// TestOrderNondeterminism: without a top-level sort the DBMS gives no order
// guarantee — different seeds produce differently ordered (but
// multiset-equal) results, and the result's recorded order is empty.
func TestOrderNondeterminism(t *testing.T) {
	c := catalog.Paper()
	sub := c.MustNode("EMPLOYEE")
	r1, err := dbms.New(c, 1).Execute(sub)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := dbms.New(c, 2).Execute(sub)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Rel.Order().Empty() {
		t.Error("no order guarantee without a top sort")
	}
	if ok, _ := equiv.Check(equiv.Multiset, r1.Rel, r2.Rel); !ok {
		t.Error("different seeds must still agree as multisets")
	}
	if r1.Rel.EqualAsList(r2.Rel) {
		t.Log("seeds 1 and 2 happened to agree as lists; acceptable but unusual")
	}
}

// TestSortException: "sort being the only exception" — a subplan topped by
// a sort keeps its order across the boundary.
func TestSortException(t *testing.T) {
	c := catalog.Paper()
	spec := relation.OrderSpec{relation.Key("EmpName"), relation.Key("Dept")}
	sub := algebra.NewSort(spec, c.MustNode("EMPLOYEE"))
	for seed := int64(1); seed <= 5; seed++ {
		res, err := dbms.New(c, seed).Execute(sub)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Rel.Order().Equal(spec) {
			t.Fatalf("seed %d: sort order not recorded: %s", seed, res.Rel.Order())
		}
		if !res.Rel.SortedBy(spec) {
			t.Fatalf("seed %d: result not actually sorted", seed)
		}
	}
}

func TestRewriterPushesSelections(t *testing.T) {
	c := catalog.Paper()
	// σ over a projection: the DBMS's own rewriter (≡L rules) should push
	// the selection below the projection.
	sub := algebra.NewSelect(
		expr.Compare(expr.Eq, expr.Column("EmpName"), expr.Literal(value.String_("Anna"))),
		algebra.NewProjectCols(c.MustNode("EMPLOYEE"), "EmpName", "Dept"))
	res, err := dbms.New(c, 1).Execute(sub)
	if err != nil {
		t.Fatal(err)
	}
	canon := algebra.Canonical(res.Rewritten)
	if !strings.HasPrefix(canon, "project") {
		t.Errorf("expected the selection pushed below the projection, got %s", canon)
	}
	// And the rewrite is semantics-preserving.
	want, _ := eval.New(c).Eval(sub)
	if ok, _ := equiv.Check(equiv.Multiset, want, res.Rel); !ok {
		t.Error("rewriter changed the result")
	}
}

func TestSQLAttached(t *testing.T) {
	c := catalog.Paper()
	res, err := dbms.New(c, 1).Execute(algebra.NewRdup(c.MustNode("PROJECT")))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.SQL, "SELECT DISTINCT") {
		t.Errorf("SQL missing DISTINCT:\n%s", res.SQL)
	}
}

func TestTransferDCallback(t *testing.T) {
	c := catalog.Paper()
	// A full round trip: the stratum coalesces, ships the result back into
	// the DBMS for sorting, and transfers it up again.
	plan := algebra.NewTransferS(
		algebra.NewSort(relation.OrderSpec{relation.Key("EmpName")},
			algebra.NewTransferD(
				algebra.NewCoal(algebra.NewTRdup(
					algebra.NewTransferS(catalog.PaperProjection(c.MustNode("EMPLOYEE"))))))))
	got, trace, err := stratum.New(c, 1).Execute(plan)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if !got.SortedBy(relation.OrderSpec{relation.Key("EmpName")}) {
		t.Error("round-trip result must be sorted by the DBMS")
	}
	if trace.TuplesTransferred < got.Len()*2 {
		t.Errorf("expected at least two boundary crossings, transferred=%d", trace.TuplesTransferred)
	}
	// Content agrees with the reference evaluation.
	want, err := eval.New(c).Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := equiv.Check(equiv.Multiset, want, got); !ok {
		t.Errorf("round trip diverged:\n%s\nvs\n%s", got, want)
	}
	// Without a stratum callback, a bare engine must reject TD.
	if _, err := dbms.New(c, 1).Execute(algebra.NewTransferD(c.MustNode("EMPLOYEE"))); err == nil {
		t.Error("TD without a callback must fail")
	}
}

package props_test

import (
	"strings"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/equiv"
	"tqp/internal/eval"
	"tqp/internal/props"
	"tqp/internal/relation"
)

// vectorsOf renders "label vector" lines for every node in pre-order.
func vectorsOf(t *testing.T, plan algebra.Node, rt equiv.ResultType) []string {
	t.Helper()
	pm, err := props.Infer(plan, rt, nil)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	var out []string
	algebra.Walk(plan, func(n algebra.Node, _ algebra.Path) bool {
		out = append(out, n.Label()+" "+pm[n].Vector())
		return true
	})
	return out
}

// TestInitialPlanProperties pins the property vectors of the paper's
// initial plan (Figure 2(a)) for the ORDER BY EmpName query. They encode
// exactly the paper's shaded regions: order need not be preserved below the
// sort; duplicates are not relevant below the top rdupᵀ except at the
// lower rdupᵀ (the temporal difference is sensitive to duplicates in its
// left argument); periods need not be preserved below the coalescing.
func TestInitialPlanProperties(t *testing.T) {
	c := catalog.Paper()
	plan := catalog.PaperInitialPlan(c)
	got := vectorsOf(t, plan, equiv.ResultList)
	want := []string{
		"TS [T T T]",
		"sort{EmpName ASC} [T T T]",
		"coalT [- T T]",
		"rdupT [- T -]",
		"diffT [- - -]",
		"rdupT [- T -]",
		"project{EmpName,T1,T2} [- - -]",
		"EMPLOYEE [- - -]",
		"project{EmpName,T1,T2} [- - -]",
		"PROJECT [- - -]",
	}
	if len(got) != len(want) {
		t.Fatalf("vectors:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("node %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

// TestIntermediatePlanProperties pins the vectors for Figure 6(a): after
// C10, the right-hand coalescing sits in the region where order, duplicates
// and periods are all irrelevant — which is what licenses rule C2 to remove
// it, as the paper's walk-through does next.
func TestIntermediatePlanProperties(t *testing.T) {
	c := catalog.Paper()
	plan := catalog.PaperIntermediatePlan(c)
	got := vectorsOf(t, plan, equiv.ResultList)
	want := []string{
		"sort{EmpName ASC} [T T T]",
		"diffT [- T T]",
		"coalT [- T T]",
		"rdupT [- T -]",
		"TS [- - -]",
		"project{EmpName,T1,T2} [- - -]",
		"EMPLOYEE [- - -]",
		"coalT [- - -]",
		"TS [- - -]",
		"project{EmpName,T1,T2} [- - -]",
		"PROJECT [- - -]",
	}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("vectors:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestOptimizedPlanProperties pins the vectors for the final plan of
// Figure 6(b): with the sort pushed into the DBMS, every operation above it
// on the left chain must preserve order, while the right branch of the
// temporal difference remains fully unconstrained.
func TestOptimizedPlanProperties(t *testing.T) {
	c := catalog.Paper()
	plan := catalog.PaperOptimizedPlan(c)
	got := vectorsOf(t, plan, equiv.ResultList)
	want := []string{
		"diffT [T T T]",
		"coalT [T T T]",
		"rdupT [T T T]",
		"TS [T T T]",
		"sort{EmpName ASC} [T T T]",
		"project{EmpName,T1,T2} [- T T]",
		"EMPLOYEE [- T T]",
		"TS [- - -]",
		"project{EmpName,T1,T2} [- - -]",
		"PROJECT [- - -]",
	}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("vectors:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestResultTypeSeedsRoot checks Definition 5.1's three cases at the root.
func TestResultTypeSeedsRoot(t *testing.T) {
	c := catalog.Paper()
	plan := catalog.PaperProjection(c.MustNode("EMPLOYEE"))
	cases := []struct {
		rt   equiv.ResultType
		want string
	}{
		{equiv.ResultList, "[T T T]"},
		{equiv.ResultMultiset, "[- T T]"},
		{equiv.ResultSet, "[- - T]"},
	}
	for _, cse := range cases {
		pm, err := props.Infer(plan, cse.rt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := pm[plan].Vector(); got != cse.want {
			t.Errorf("result type %s: root vector %s, want %s", cse.rt, got, cse.want)
		}
	}
}

// TestStateInference checks the static state of the paper plans' key nodes:
// schema temporality, order propagation through the DBMS boundary, and the
// duplicate/coalescing flags that drive rule preconditions D2, C1, C10.
func TestStateInference(t *testing.T) {
	c := catalog.Paper()
	plan := catalog.PaperOptimizedPlan(c)
	st, err := props.InferStates(plan)
	if err != nil {
		t.Fatal(err)
	}

	root := plan // diffT
	rs := st[root]
	if !rs.SnapshotDistinct {
		t.Error("diffT over a snapshot-distinct left argument must be snapshot-distinct")
	}
	byName := relation.OrderSpec{relation.Key("EmpName")}
	if !rs.Order.Equal(byName) {
		t.Errorf("diffT order = %s, want %s (retained from the sorted left branch)", rs.Order, byName)
	}

	coal := root.Children()[0]
	if s := st[coal]; !s.Coalesced || !s.SnapshotDistinct {
		t.Errorf("coalT state = %+v, want coalesced and snapshot-distinct", s)
	}
	if s := st[coal]; s.Site != props.Stratum {
		t.Error("coalT must execute in the stratum")
	}

	ts := coal.Children()[0].Children()[0] // TS below rdupT
	if s := st[ts]; !s.Order.Equal(byName) {
		t.Errorf("TS over a DBMS sort should carry order %s, got %s", byName, s.Order)
	}

	sort := ts.Children()[0]
	if s := st[sort]; s.Site != props.DBMS {
		t.Error("the pushed-down sort must execute in the DBMS")
	}

	proj := sort.Children()[0]
	if s := st[proj]; !s.Order.Empty() {
		t.Errorf("a non-sort operation inside the DBMS has no order guarantee, got %s", s.Order)
	}
}

// TestStateSoundness: on randomized plans over the paper database, every
// static claim (order, distinct, snapshot-distinct, coalesced) must hold
// dynamically for the evaluated result.
func TestStateSoundness(t *testing.T) {
	c := catalog.Paper()
	plans := []algebra.Node{
		catalog.PaperInitialPlan(c),
		catalog.PaperIntermediatePlan(c),
		catalog.PaperOptimizedPlan(c),
		algebra.NewCoal(algebra.NewTRdup(catalog.PaperProjection(c.MustNode("EMPLOYEE")))),
		algebra.NewTRdup(algebra.NewTUnion(
			catalog.PaperProjection(c.MustNode("EMPLOYEE")),
			catalog.PaperProjection(c.MustNode("PROJECT")))),
		algebra.NewRdup(c.MustNode("PROJECT")),
		algebra.NewSort(relation.OrderSpec{relation.Key("EmpName"), relation.Key("Dept")},
			c.MustNode("EMPLOYEE")),
	}
	ev := eval.New(c)
	for pi, plan := range plans {
		st, err := props.InferStates(plan)
		if err != nil {
			t.Fatalf("plan %d: %v", pi, err)
		}
		var check func(n algebra.Node)
		check = func(n algebra.Node) {
			for _, ch := range n.Children() {
				check(ch)
			}
			// Skip DBMS-site nodes: the reference evaluator does not model
			// the DBMS's order nondeterminism (the stratum executor does).
			s := st[n]
			r, err := ev.Eval(n)
			if err != nil {
				t.Fatalf("plan %d eval %s: %v", pi, n.Label(), err)
			}
			if !s.Order.Empty() && !r.SortedBy(s.Order) {
				t.Errorf("plan %d node %s: claimed order %s not satisfied", pi, n.Label(), s.Order)
			}
			if s.Distinct && r.HasDuplicates() {
				t.Errorf("plan %d node %s: claimed distinct but has duplicates", pi, n.Label())
			}
			if s.SnapshotDistinct && r.HasSnapshotDuplicates() {
				t.Errorf("plan %d node %s: claimed snapshot-distinct but has snapshot duplicates", pi, n.Label())
			}
			if s.Coalesced && r.Temporal() && !r.IsCoalesced() {
				t.Errorf("plan %d node %s: claimed coalesced but is not", pi, n.Label())
			}
		}
		check(plan)
	}
}

// TestDBMSOrderKept: inside the DBMS only a sort orders a result (Section
// 4.5), so where a DBMS location must keep an order its replacement must be
// a sort; in the stratum, and wherever no order is required, any operator
// may replace it.
func TestDBMSOrderKept(t *testing.T) {
	for _, tc := range []struct {
		site props.Site
		tau  equiv.Type
		op   algebra.Op
		want bool
	}{
		{props.Stratum, equiv.List, algebra.OpCoal, true},
		{props.DBMS, equiv.List, algebra.OpSort, true},
		{props.DBMS, equiv.List, algebra.OpCoal, false},
		{props.DBMS, equiv.SnapshotList, algebra.OpProject, false},
		{props.DBMS, equiv.Multiset, algebra.OpProject, true},
		{props.DBMS, equiv.SnapshotSet, algebra.OpTRdup, true},
	} {
		if got := props.DBMSOrderKept(tc.site, tc.tau, tc.op); got != tc.want {
			t.Errorf("DBMSOrderKept(%s, %v, %s) = %v, want %v", tc.site, tc.tau, tc.op, got, tc.want)
		}
	}
}

package dbms_test

import (
	"math/rand"
	"strings"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/dbms"
	"tqp/internal/equiv"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/expr"
	"tqp/internal/props"
	"tqp/internal/relation"
	"tqp/internal/stratum"
	"tqp/internal/testutil"
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
	res, err := dbms.New(c, 3, eval.Reference()).Execute(sub)
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
	res, err := dbms.New(c, 5, eval.Reference()).Execute(sub)
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
	r1, err := dbms.New(c, 1, eval.Reference()).Execute(sub)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := dbms.New(c, 2, eval.Reference()).Execute(sub)
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
		res, err := dbms.New(c, seed, eval.Reference()).Execute(sub)
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
	res, err := dbms.New(c, 1, eval.Reference()).Execute(sub)
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
	res, err := dbms.New(c, 1, eval.Reference()).Execute(algebra.NewRdup(c.MustNode("PROJECT")))
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
	if _, err := dbms.New(c, 1, eval.Reference()).Execute(algebra.NewTransferD(c.MustNode("EMPLOYEE"))); err == nil {
		t.Error("TD without a callback must fail")
	}
}

// subplanResult executes one DBMS subplan on the given engine spec, with TD
// subtrees run by a stratum executor on the same spec.
func subplanResult(c *catalog.Catalog, seed int64, spec eval.EngineSpec, sub algebra.Node) (*relation.Relation, error) {
	d := dbms.New(c, seed, spec)
	d.SetStratumCallback(func(n algebra.Node) (*relation.Relation, error) {
		r, _, err := stratum.NewWithEngine(c, seed, spec).Execute(n)
		return r, err
	})
	res, err := d.Execute(sub)
	if err != nil {
		return nil, err
	}
	return res.Rel, nil
}

// TestPerSubplanDifferential: the list a DBMS subplan hands the stratum —
// permuted, or in its top sort's order — is the same on every engine the
// executor runs the DBMS on as on the reference evaluator: sequential,
// parallel and budgeted exec, over random plans, sort-topped plans and
// plans that ship a random stratum region back down (TD).
func TestPerSubplanDifferential(t *testing.T) {
	specs := []eval.EngineSpec{
		exec.NewSpec(exec.Config{}),
		exec.NewSpec(exec.Config{Parallelism: 4}),
		exec.NewSpec(exec.Config{MemoryBudget: 64 << 10}),
	}
	hasTD := func(n algebra.Node) bool {
		found := false
		algebra.Walk(n, func(m algebra.Node, _ algebra.Path) bool {
			found = found || m.Op() == algebra.OpTransferD
			return !found
		})
		return found
	}
	subplans, sortTopped, roundTrips := 0, 0, 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, bases := testutil.TemporalCatalogSized(seed, 24, 16)
		for trial := 0; trial < 9; trial++ {
			var sub algebra.Node
			switch trial % 3 {
			case 0:
				sub = testutil.RandomPlan(rng, bases, 2+rng.Intn(2))
			case 1:
				p := testutil.RandomPlan(rng, bases, 2)
				s, err := p.Schema()
				if err != nil {
					t.Fatal(err)
				}
				sub = algebra.NewSort(relation.OrderSpec{relation.Key(s.At(rng.Intn(s.Len())).Name)}, p)
			default:
				region := testutil.TemporalCore(rng, []algebra.Node{algebra.NewTransferS(bases[0]), algebra.NewTransferS(bases[1])}, 2)
				sub = testutil.RandomPlan(rng, append([]algebra.Node{algebra.NewTransferD(region)}, bases...), 2)
			}
			want, errRef := subplanResult(c, seed, eval.Reference(), sub)
			for _, spec := range specs {
				got, err := subplanResult(c, seed, spec, sub)
				if (err == nil) != (errRef == nil) {
					t.Fatalf("seed %d: %s: %s and the reference disagree on failure: %v vs %v", seed, algebra.Canonical(sub), spec.Name, err, errRef)
				}
				if err != nil {
					continue
				}
				if !got.Schema().Equal(want.Schema()) || !got.EqualAsList(want) || !got.Order().Equal(want.Order()) {
					t.Fatalf("seed %d: %s: %s delivers (order %s)\n%s\nthe reference (order %s)\n%s",
						seed, algebra.Canonical(sub), spec.Name, got.Order(), got, want.Order(), want)
				}
			}
			if errRef != nil {
				continue
			}
			subplans++
			if sub.Op() == algebra.OpSort {
				sortTopped++
			}
			if hasTD(sub) {
				roundTrips++
			}
		}
	}
	t.Logf("%d subplans: %d sort-topped, %d with a TD round trip", subplans, sortTopped, roundTrips)
	if subplans < 300 || sortTopped < 50 || roundTrips < 50 {
		t.Fatalf("covered %d subplans (%d sort-topped, %d round trips), want ≥ 300 (≥ 50, ≥ 50)", subplans, sortTopped, roundTrips)
	}
}

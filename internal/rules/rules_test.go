package rules_test

import (
	"fmt"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/datagen"
	"tqp/internal/equiv"
	"tqp/internal/eval"
	"tqp/internal/expr"
	"tqp/internal/props"
	"tqp/internal/relation"
	"tqp/internal/rules"
	"tqp/internal/value"
)

// pool builds a seeded database and a diverse set of plans over it that
// together exercise every rule's left-hand-side shape.
func pool(t *testing.T, seed int64) (*catalog.Catalog, []algebra.Node) {
	t.Helper()
	c := catalog.New()

	addTruthful := func(name string, r *relation.Relation) {
		info := algebra.BaseInfo{
			Distinct:         !r.HasDuplicates(),
			SnapshotDistinct: !r.HasSnapshotDuplicates(),
		}
		if r.Temporal() {
			info.Coalesced = r.IsCoalesced()
		}
		if err := c.Add(name, r, info); err != nil {
			t.Fatalf("add %s: %v", name, err)
		}
	}

	ta := datagen.Temporal(datagen.TemporalSpec{Rows: 14, Values: 4, DupFrac: 0.2, AdjFrac: 0.3, Seed: seed})
	tb := datagen.Temporal(datagen.TemporalSpec{Rows: 12, Values: 4, DupFrac: 0.1, AdjFrac: 0.2, Seed: seed + 1})
	addTruthful("TA", ta)
	addTruthful("TB", tb)

	// TД: a snapshot-distinct, coalesced temporal relation obtained by
	// canonicalizing a generated one through rdupᵀ and coalᵀ.
	base := datagen.Temporal(datagen.TemporalSpec{Rows: 12, Values: 3, DupFrac: 0.2, AdjFrac: 0.4, Seed: seed + 2})
	tmp := catalog.New()
	tmp.MustAdd("X", base, algebra.BaseInfo{})
	canon, err := eval.New(tmp).Eval(algebra.NewCoal(algebra.NewTRdup(tmp.MustNode("X"))))
	if err != nil {
		t.Fatalf("canonicalize: %v", err)
	}
	addTruthful("TC", canon)

	canon2, err := eval.New(tmp).Eval(algebra.NewTRdup(tmp.MustNode("X")))
	if err != nil {
		t.Fatalf("canonicalize2: %v", err)
	}
	addTruthful("TSD", canon2) // snapshot-distinct, maybe uncoalesced

	sa := datagen.Snapshot(datagen.SnapshotSpec{Rows: 10, Values: 5, DupFrac: 0.3, Seed: seed + 3})
	sb := datagen.Snapshot(datagen.SnapshotSpec{Rows: 8, Values: 5, DupFrac: 0.2, Seed: seed + 4})
	addTruthful("SA", sa)
	addTruthful("SB", sb)

	// Distinct snapshot relation for D1.
	tmp2 := catalog.New()
	tmp2.MustAdd("Y", sa, algebra.BaseInfo{})
	saD, err := eval.New(tmp2).Eval(algebra.NewRdup(tmp2.MustNode("Y")))
	if err != nil {
		t.Fatalf("dedup: %v", err)
	}
	addTruthful("SD", saD)

	// The paper's running example relations.
	paper := catalog.Paper()
	for _, name := range paper.Names() {
		e, _ := paper.Entry(name)
		c.MustAdd(name, e.Rel, e.Info)
	}

	TA := func() algebra.Node { return c.MustNode("TA") }
	TB := func() algebra.Node { return c.MustNode("TB") }
	TC := func() algebra.Node { return c.MustNode("TC") }
	TSD := func() algebra.Node { return c.MustNode("TSD") }
	SA := func() algebra.Node { return c.MustNode("SA") }
	SB := func() algebra.Node { return c.MustNode("SB") }
	SD := func() algebra.Node { return c.MustNode("SD") }

	byName := relation.OrderSpec{relation.Key("Name")}
	byNameGrp := relation.OrderSpec{relation.Key("Name"), relation.KeyDesc("Grp")}
	grpLt2 := expr.Compare(expr.Lt, expr.Column("Grp"), expr.Literal(value.Int(2)))
	grpGe1 := expr.Compare(expr.Ge, expr.Column("Grp"), expr.Literal(value.Int(1)))
	timePred := expr.Compare(expr.Ge, expr.Column("T1"), expr.Literal(value.Time(5)))
	aggCount := []expr.Aggregate{{Func: expr.CountAll, As: "cnt"}}
	aggMin := []expr.Aggregate{{Func: expr.Min, Arg: "Grp", As: "mn"}}

	// The πA of rule C9 over TA ×ᵀ TB: every attribute except the four
	// qualified timestamps.
	stampFree := func(prod algebra.Node) *algebra.Project {
		ps, err := prod.Schema()
		if err != nil {
			t.Fatalf("product schema: %v", err)
		}
		drop := map[string]bool{"1.T1": true, "1.T2": true, "2.T1": true, "2.T2": true}
		var names []string
		for _, a := range ps.Attributes() {
			if !drop[a.Name] {
				names = append(names, a.Name)
			}
		}
		return algebra.NewProjectCols(prod, names...)
	}

	plans := []algebra.Node{
		// Duplicate elimination shapes.
		algebra.NewRdup(SA()),
		algebra.NewRdup(SD()),
		algebra.NewRdup(algebra.NewUnion(SA(), SB())),
		algebra.NewUnion(algebra.NewRdup(SA()), algebra.NewRdup(SB())),
		algebra.NewTRdup(TA()),
		algebra.NewTRdup(TC()),
		algebra.NewTRdup(algebra.NewTUnion(TA(), TB())),
		algebra.NewTUnion(algebra.NewTRdup(TA()), algebra.NewTRdup(TB())),
		// Coalescing shapes.
		algebra.NewCoal(TA()),
		algebra.NewCoal(TC()),
		algebra.NewCoal(algebra.NewSelect(grpLt2, TA())),
		algebra.NewSelect(grpLt2, algebra.NewCoal(TA())),
		algebra.NewCoal(algebra.NewSelect(timePred, TA())),
		algebra.NewProjectCols(algebra.NewCoal(TA()), "Name", "Grp"),
		algebra.NewCoal(algebra.NewUnionAll(algebra.NewCoal(TA()), algebra.NewCoal(TB()))),
		algebra.NewCoal(algebra.NewTUnion(algebra.NewCoal(TA()), algebra.NewCoal(TB()))),
		algebra.NewCoal(algebra.NewTAggregate([]string{"Name"}, aggCount, algebra.NewCoal(TA()))),
		algebra.NewCoal(algebra.NewProjectCols(algebra.NewCoal(TSD()), "Name", "T1", "T2")),
		algebra.NewCoal(stampFree(algebra.NewTProduct(TC(), TSD()))),
		algebra.NewCoal(algebra.NewTDiff(TSD(), TB())),
		algebra.NewTDiff(algebra.NewCoal(TSD()), algebra.NewCoal(TB())),
		// Sorting shapes.
		algebra.NewSort(byName, TA()),
		algebra.NewSort(byName, algebra.NewSort(byNameGrp, TA())),
		algebra.NewSort(byNameGrp, algebra.NewSort(byName, TA())),
		algebra.NewSort(byName, algebra.NewSelect(grpLt2, TA())),
		algebra.NewSelect(grpLt2, algebra.NewSort(byName, TA())),
		algebra.NewSort(byName, algebra.NewProjectCols(TA(), "Name", "T1", "T2")),
		algebra.NewSort(byName, algebra.NewSort(byName, TA())),
		algebra.NewSort(relation.OrderSpec{relation.Key("Name")},
			algebra.NewProject([]algebra.ProjItem{
				{Expr: expr.Column("Grp"), As: "Name"},
				{Expr: expr.Column("Name"), As: "Orig"},
			}, TA())),
		algebra.NewSort(byName, algebra.NewDiff(SA(), SB())),
		algebra.NewSort(byName, algebra.NewTDiff(TSD(), TB())),
		algebra.NewSort(byName, algebra.NewCoal(TSD())),
		algebra.NewSort(byName, algebra.NewTRdup(TSD())),
		algebra.NewSort(relation.OrderSpec{relation.Key("1.Name")}, algebra.NewProduct(SA(), TB())),
		// Selection shapes.
		algebra.NewSelect(grpLt2, algebra.NewSelect(grpGe1, TA())),
		algebra.NewSelect(expr.Conj(grpLt2, grpGe1), TA()),
		algebra.NewSelect(grpLt2, algebra.NewUnionAll(TA(), TB())),
		algebra.NewSelect(grpLt2, algebra.NewUnion(SA(), SB())),
		algebra.NewSelect(grpLt2, algebra.NewTUnion(TA(), TB())),
		algebra.NewSelect(timePred, algebra.NewTUnion(TA(), TB())),
		algebra.NewSelect(grpLt2, algebra.NewDiff(SA(), SB())),
		algebra.NewSelect(grpLt2, algebra.NewTDiff(TA(), TB())),
		algebra.NewSelect(timePred, algebra.NewTDiff(TA(), TB())),
		// Products with selections referencing one side.
		algebra.NewSelect(
			expr.Compare(expr.Lt, expr.Column("1.Grp"), expr.Literal(value.Int(2))),
			algebra.NewProduct(SA(), SB())),
		algebra.NewSelect(
			expr.Compare(expr.Lt, expr.Column("2.Grp"), expr.Literal(value.Int(2))),
			algebra.NewProduct(SA(), SB())),
		algebra.NewSelect(
			expr.Compare(expr.Eq, expr.Column("1.Name"), expr.Column("2.Name")),
			algebra.NewProduct(SA(), SB())),
		algebra.NewSelect(
			expr.Compare(expr.Lt, expr.Column("1.Grp"), expr.Literal(value.Int(2))),
			algebra.NewTProduct(TA(), TB())),
		// Projection shapes.
		algebra.NewProjectCols(algebra.NewProjectCols(TA(), "Name", "Grp", "T1", "T2"), "Name", "Grp"),
		algebra.NewSelect(grpLt2, algebra.NewProjectCols(TA(), "Name", "Grp")),
		algebra.NewProjectCols(algebra.NewSelect(grpLt2, TA()), "Name", "Grp"),
		algebra.NewProjectCols(algebra.NewProduct(SA(), SB()), "1.Name", "2.Grp"),
		algebra.NewProjectCols(algebra.NewProduct(SA(), TB()), "1.Name", "2.Grp"),
		// Commutativity and associativity shapes.
		algebra.NewProduct(SA(), SB()),
		algebra.NewProduct(SA(), TB()),
		algebra.NewTProduct(TA(), TB()),
		algebra.NewUnionAll(TA(), TB()),
		algebra.NewUnionAll(algebra.NewUnionAll(TA(), TB()), TC()),
		algebra.NewUnion(SA(), SB()),
		algebra.NewUnion(algebra.NewUnion(SA(), SB()), SD()),
		algebra.NewTUnion(TA(), TB()),
		algebra.NewTUnion(algebra.NewTUnion(TA(), TB()), TC()),
		// Join idioms.
		algebra.NewJoin(expr.Compare(expr.Eq, expr.Column("1.Name"), expr.Column("2.Name")), SA(), SB()),
		algebra.NewTJoin(expr.Compare(expr.Eq, expr.Column("1.Name"), expr.Column("2.Name")), TA(), TB()),
		// Aggregation (argument shapes for transfers and C7).
		algebra.NewAggregate([]string{"Name"}, aggCount, SA()),
		algebra.NewAggregate([]string{"Name"}, aggMin, SA()),
		algebra.NewTAggregate([]string{"Name"}, aggCount, TA()),
		// Transfer shapes.
		algebra.NewTransferS(algebra.NewSelect(grpLt2, TA())),
		algebra.NewSelect(grpLt2, algebra.NewTransferS(TA())),
		algebra.NewTransferS(algebra.NewSort(byName, TA())),
		algebra.NewSort(byName, algebra.NewTransferS(TA())),
		algebra.NewTransferS(algebra.NewTRdup(TA())),
		algebra.NewTRdup(algebra.NewTransferS(TA())),
		algebra.NewTransferS(algebra.NewCoal(TA())),
		algebra.NewCoal(algebra.NewTransferS(TA())),
		algebra.NewTransferS(algebra.NewTDiff(TA(), TB())),
		algebra.NewTDiff(algebra.NewTransferS(TA()), algebra.NewTransferS(TB())),
		algebra.NewTransferS(algebra.NewProduct(SA(), SB())),
		algebra.NewProduct(algebra.NewTransferS(SA()), algebra.NewTransferS(SB())),
		algebra.NewTransferS(algebra.NewTransferD(algebra.NewCoal(algebra.NewTransferS(TA())))),
		algebra.NewTransferS(algebra.NewProjectCols(TA(), "Name", "T1", "T2")),
		algebra.NewTransferS(algebra.NewAggregate([]string{"Name"}, aggCount, SA())),
		algebra.NewTransferS(algebra.NewRdup(SA())),
		algebra.NewRdup(algebra.NewTransferS(SA())),
		// The paper's running example.
		catalog.PaperInitialPlan(c),
		catalog.PaperIntermediatePlan(c),
		catalog.PaperOptimizedPlan(c),
	}
	return c, plans
}

// TestRuleEquivalences applies every rule at every location of every pool
// plan and verifies that the rule's claimed equivalence type holds between
// the subtree's results before and after the rewrite. It also asserts that
// every rule in the catalog fires at least once, so the pool cannot
// silently lose coverage.
func TestRuleEquivalences(t *testing.T) {
	applied := make(map[string]int)
	for seed := int64(1); seed <= 5; seed++ {
		c, plans := pool(t, seed*100)
		ev := eval.New(c)
		for pi, plan := range plans {
			if err := algebra.Validate(plan); err != nil {
				t.Fatalf("seed %d plan %d invalid: %v", seed, pi, err)
			}
			st, err := props.InferStates(plan)
			if err != nil {
				t.Fatalf("seed %d plan %d states: %v", seed, pi, err)
			}
			for _, path := range algebra.Paths(plan) {
				node, err := algebra.NodeAt(plan, path)
				if err != nil {
					t.Fatal(err)
				}
				for _, rule := range rules.All() {
					rewrite := rule.Apply(node, st)
					if rewrite == nil {
						continue
					}
					applied[rule.Name]++
					if applied[rule.Name] > 400 {
						continue // enough samples for this rule
					}
					lhs, err := ev.Eval(node)
					if err != nil {
						t.Fatalf("seed %d plan %d rule %s: eval lhs: %v", seed, pi, rule.Name, err)
					}
					rhs, err := ev.Eval(rewrite.Result)
					if err != nil {
						t.Fatalf("seed %d plan %d rule %s: eval rhs: %v", seed, pi, rule.Name, err)
					}
					ok, err := equiv.Check(rule.Type, lhs, rhs)
					if err != nil {
						t.Fatalf("seed %d plan %d rule %s: check: %v", seed, pi, rule.Name, err)
					}
					if !ok {
						t.Errorf("seed %d plan %d: rule %s claims %s but it fails at %s:\nLHS %s\n%s\nRHS %s\n%s",
							seed, pi, rule.Name, rule.Type, path,
							algebra.Canonical(node), lhs, algebra.Canonical(rewrite.Result), rhs)
					}
				}
			}
		}
	}
	for _, rule := range rules.All() {
		if applied[rule.Name] == 0 {
			t.Errorf("rule %s never fired in the pool — coverage gap", rule.Name)
		}
	}
	if testing.Verbose() {
		for name, n := range applied {
			fmt.Printf("%-8s fired %d times\n", name, n)
		}
	}
}

// TestRuleStrength pins, for representative rules, that the claimed type is
// the strongest that holds: the paper always gives the strongest type, so a
// witness input must violate the next stronger equivalence.
func TestRuleStrength(t *testing.T) {
	c := catalog.Paper()
	ev := eval.New(c)
	r1 := catalog.PaperProjection(c.MustNode("EMPLOYEE"))

	evalOf := func(n algebra.Node) *relation.Relation {
		t.Helper()
		r, err := ev.Eval(n)
		if err != nil {
			t.Fatalf("eval: %v", err)
		}
		return r
	}

	// D4: rdupT(r) ≡SS r but not ≡SM (R1 vs R3 in Figure 3).
	lhs, rhs := evalOf(algebra.NewTRdup(r1)), evalOf(r1)
	if ok, _ := equiv.Check(equiv.SnapshotSet, lhs, rhs); !ok {
		t.Error("D4: ≡SS should hold")
	}
	if ok, _ := equiv.Check(equiv.SnapshotMultiset, lhs, rhs); ok {
		t.Error("D4: ≡SM should fail on Figure 3's R1 (it has snapshot duplicates)")
	}

	// C2: coalT(r) ≡SM r but not ≡M (adjacent periods merge).
	lhs, rhs = evalOf(algebra.NewCoal(algebra.NewTRdup(r1))), evalOf(algebra.NewTRdup(r1))
	if ok, _ := equiv.Check(equiv.SnapshotMultiset, lhs, rhs); !ok {
		t.Error("C2: ≡SM should hold")
	}
	if ok, _ := equiv.Check(equiv.Multiset, lhs, rhs); ok {
		t.Error("C2: ≡M should fail when coalescing merges Anna's adjacent periods")
	}

	// S2: sortA(r) ≡M r but not ≡L on unsorted data.
	byName := relation.OrderSpec{relation.Key("EmpName")}
	lhs, rhs = evalOf(algebra.NewSort(byName, r1)), evalOf(r1)
	if ok, _ := equiv.Check(equiv.Multiset, lhs, rhs); !ok {
		t.Error("S2: ≡M should hold")
	}
	if ok, _ := equiv.Check(equiv.List, lhs, rhs); ok {
		t.Error("S2: ≡L should fail — EMPLOYEE is not sorted by name")
	}

	// PC4: r1 ∪T r2 ≡SM r2 ∪T r1 but not ≡M (fragmentation differs).
	ta := catalog.PaperProjection(c.MustNode("EMPLOYEE"))
	tbSel := algebra.NewSelect(
		expr.Compare(expr.Eq, expr.Column("EmpName"), expr.Literal(value.String_("John"))),
		catalog.PaperProjection(c.MustNode("EMPLOYEE")))
	u1 := evalOf(algebra.NewTUnion(ta, tbSel))
	u2 := evalOf(algebra.NewTUnion(tbSel, ta))
	if ok, _ := equiv.Check(equiv.SnapshotMultiset, u1, u2); !ok {
		t.Error("PC4: ≡SM should hold for commuted temporal union")
	}
	if ok, _ := equiv.Check(equiv.Multiset, u1, u2); ok {
		t.Error("PC4: ≡M should fail — the excess fragments differ between orders")
	}

	// PC1: r1 × r2 commuted is ≡M but not ≡L.
	sa := algebra.NewRdup(algebra.NewProjectCols(c.MustNode("EMPLOYEE"), "EmpName", "Dept"))
	sb := algebra.NewRdup(algebra.NewProjectCols(c.MustNode("PROJECT"), "Prj"))
	prod := algebra.NewProduct(sa, sb)
	st, err := props.InferStates(prod)
	if err != nil {
		t.Fatal(err)
	}
	var rewritten algebra.Node
	for _, rule := range rules.ByName("PC1") {
		if rw := rule.Apply(prod, st); rw != nil {
			rewritten = rw.Result
		}
	}
	if rewritten == nil {
		t.Fatal("PC1 did not fire on a plain product")
	}
	lhs, rhs = evalOf(prod), evalOf(rewritten)
	if ok, _ := equiv.Check(equiv.Multiset, lhs, rhs); !ok {
		t.Error("PC1: ≡M should hold")
	}
	if ok, _ := equiv.Check(equiv.List, lhs, rhs); ok {
		t.Error("PC1: ≡L should fail — commuted product enumerates pairs right-major")
	}
}

// TestRulesReadWithinStateDepth: no rule reads the state of a node deeper
// than StateDepth below its location — the search hands Apply only those
// states. Every rule at every location of every pool plan must propose the
// same rewrite from the location's top StateDepth+1 levels of states as
// from the whole plan's.
func TestRulesReadWithinStateDepth(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		_, plans := pool(t, seed*100)
		for pi, plan := range plans {
			memo := props.NewMemo()
			full, err := memo.States(plan)
			if err != nil {
				t.Fatal(err)
			}
			for _, path := range algebra.Paths(plan) {
				node, err := algebra.NodeAt(plan, path)
				if err != nil {
					t.Fatal(err)
				}
				near := make(props.States)
				if err := memo.Subtree(node, full[node].Site, rules.StateDepth, near); err != nil {
					t.Fatal(err)
				}
				for _, rule := range rules.All() {
					a, b := rule.Apply(node, full), rule.Apply(node, near)
					if (a == nil) != (b == nil) || (a != nil && algebra.Canonical(a.Result) != algebra.Canonical(b.Result)) {
						t.Fatalf("seed %d plan %d: rule %s at %s reads states deeper than StateDepth %d",
							seed, pi, rule.Name, path, rules.StateDepth)
					}
				}
			}
		}
	}
}

// TestParticipantsAreLHSPositions: a rewrite names its participants by
// their paths from the location, which the search resolves over the
// location's top StateDepth+1 levels. Every rule at every location of every
// pool plan must list the location first and distinct positions within
// those levels that exist in the plan, each below another participant, as
// the operations and subtree roots of a left-hand side are.
func TestParticipantsAreLHSPositions(t *testing.T) {
	matched := 0
	for seed := int64(1); seed <= 5; seed++ {
		_, plans := pool(t, seed*100)
		for pi, plan := range plans {
			st, err := props.InferStates(plan)
			if err != nil {
				t.Fatal(err)
			}
			for _, path := range algebra.Paths(plan) {
				node, err := algebra.NodeAt(plan, path)
				if err != nil {
					t.Fatal(err)
				}
				for _, rule := range rules.All() {
					rw := rule.Apply(node, st)
					if rw == nil {
						continue
					}
					matched++
					ps := rw.Participants
					if len(ps) == 0 || len(ps[0]) != 0 {
						t.Fatalf("seed %d plan %d: rule %s at %s: participants %v do not start at the location", seed, pi, rule.Name, path, ps)
					}
					listed := map[string]bool{}
					for _, p := range ps {
						if _, err := algebra.NodeAt(node, p); err != nil || len(p) > rules.StateDepth {
							t.Fatalf("seed %d plan %d: rule %s at %s: participant %v is not a position within StateDepth", seed, pi, rule.Name, path, p)
						}
						if listed[p.String()] || (len(p) > 0 && !listed[p[:len(p)-1].String()]) {
							t.Fatalf("seed %d plan %d: rule %s at %s: participant %v repeats or hangs below no earlier participant", seed, pi, rule.Name, path, p)
						}
						listed[p.String()] = true
					}
				}
			}
		}
	}
	if matched == 0 {
		t.Fatal("no rule matched any pool plan")
	}
}

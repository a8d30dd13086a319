package cost_test

import (
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/cost"
	"tqp/internal/datagen"
	"tqp/internal/expr"
	"tqp/internal/props"
	"tqp/internal/relation"
	"tqp/internal/testutil"
)

func TestOptimizedPlanCheaper(t *testing.T) {
	c := catalog.Paper()
	m := cost.New(c, cost.DefaultParams())
	initial, err := m.Cost(catalog.PaperInitialPlan(c))
	if err != nil {
		t.Fatal(err)
	}
	optimized, err := m.Cost(catalog.PaperOptimizedPlan(c))
	if err != nil {
		t.Fatal(err)
	}
	if optimized >= initial {
		t.Errorf("optimized %.1f should beat initial %.1f", optimized, initial)
	}
}

func TestCardinalityUsesCatalog(t *testing.T) {
	c := catalog.Paper()
	m := cost.New(c, cost.DefaultParams())
	// Leaf estimates come from the catalog stats: EMPLOYEE has 5 tuples,
	// and projection preserves cardinality.
	plan := catalog.PaperProjection(c.MustNode("EMPLOYEE"))
	es, err := m.Plan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := es[plan].Rows; got != 5 {
		t.Errorf("π(EMPLOYEE) estimated rows = %.1f, want 5", got)
	}
}

func TestSortSiteAsymmetry(t *testing.T) {
	c := catalog.Paper()
	m := cost.New(c, cost.DefaultParams())
	spec := relation.OrderSpec{relation.Key("EmpName")}
	proj := func() algebra.Node { return catalog.PaperProjection(c.MustNode("EMPLOYEE")) }
	// sort inside the DBMS vs in the stratum: the paper's premise is that
	// "the DBMS sorts faster than the stratum".
	inDBMS := algebra.NewTransferS(algebra.NewSort(spec, proj()))
	inStratum := algebra.NewSort(spec, algebra.NewTransferS(proj()))
	cd, err := m.Cost(inDBMS)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := m.Cost(inStratum)
	if err != nil {
		t.Fatal(err)
	}
	if cd >= cs {
		t.Errorf("DBMS sort (%.2f) should be cheaper than stratum sort (%.2f)", cd, cs)
	}
}

func TestTemporalPenaltyInDBMS(t *testing.T) {
	c := catalog.Paper()
	m := cost.New(c, cost.DefaultParams())
	proj := func() algebra.Node { return catalog.PaperProjection(c.MustNode("EMPLOYEE")) }
	inDBMS := algebra.NewTransferS(algebra.NewTRdup(proj()))
	inStratum := algebra.NewTRdup(algebra.NewTransferS(proj()))
	cd, err := m.Cost(inDBMS)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := m.Cost(inStratum)
	if err != nil {
		t.Fatal(err)
	}
	if cs >= cd {
		t.Errorf("temporal op in the stratum (%.2f) should be cheaper than in the DBMS (%.2f)", cs, cd)
	}
}

func TestBestSelection(t *testing.T) {
	c := catalog.Paper()
	m := cost.New(c, cost.DefaultParams())
	plans := []algebra.Node{
		catalog.PaperInitialPlan(c),
		catalog.PaperIntermediatePlan(c),
		catalog.PaperOptimizedPlan(c),
	}
	costs := make([]float64, len(plans))
	for i, p := range plans {
		var err error
		if costs[i], err = m.Cost(p); err != nil {
			t.Fatal(err)
		}
	}
	if !(costs[2] < costs[0] && costs[2] < costs[1]) {
		t.Errorf("expected the Figure 6(b) plan to win, costs %v", costs)
	}
}

func TestEstimatesScaleWithData(t *testing.T) {
	small := datagen.EmployeeDB(datagen.EmployeeSpec{Employees: 10, SpellsPerEmp: 2, AssignmentsPerEmp: 2, Seed: 1})
	large := datagen.EmployeeDB(datagen.EmployeeSpec{Employees: 100, SpellsPerEmp: 2, AssignmentsPerEmp: 2, Seed: 1})
	cs, err := cost.New(small, cost.DefaultParams()).Cost(catalog.PaperInitialPlan(small))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cost.New(large, cost.DefaultParams()).Cost(catalog.PaperInitialPlan(large))
	if err != nil {
		t.Fatal(err)
	}
	if cl <= cs {
		t.Errorf("cost should grow with the database: %.1f vs %.1f", cl, cs)
	}
}

// TestOrderAwareBelowBlind: over bases sorted and declared on ⟨Name, Grp⟩,
// the delivered order derives bottom-up through rdupᵀ, coalᵀ and ⋈ᵀ, so the
// order-aware model prices the group-at-a-time temporal operators, the merge
// join and the elided top sorts strictly below the order-blind model, which
// hashes and sorts as if every input were unordered.
func TestOrderAwareBelowBlind(t *testing.T) {
	c := testutil.SortedCatalog(1200)
	pipe := algebra.NewSort(relation.OrderSpec{relation.Key("Name")},
		algebra.NewCoal(algebra.NewTRdup(c.MustNode("L"))))
	join := algebra.NewSort(relation.OrderSpec{relation.Key("1.Name")},
		algebra.NewTJoin(expr.Compare(expr.Eq, expr.Column("1.Name"), expr.Column("2.Name")),
			c.MustNode("L"), c.MustNode("R")))
	blindParams := cost.ParamsFor(true)
	blindParams.OrderBlind = true
	aware, blind := cost.New(c, cost.ParamsFor(true)), cost.New(c, blindParams)
	for name, plan := range map[string]algebra.Node{"pipeline": pipe, "join": join} {
		ca, err := aware.Cost(plan)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := blind.Cost(plan)
		if err != nil {
			t.Fatal(err)
		}
		if !(ca < cb) {
			t.Errorf("%s: order-aware cost %.0f must be strictly below order-blind %.0f", name, ca, cb)
		}
	}
}

// TestParallelShape pins the parallelism-aware calibration: a partitioned
// operator over a large input gets cheaper as workers are added (the
// per-partition work dominates the exchange/gather charges), while small
// inputs can price higher than sequential — the exchange overhead is real
// and the model must say so.
func TestParallelShape(t *testing.T) {
	c := datagen.EmployeeDB(datagen.EmployeeSpec{Employees: 400, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 1})
	// The optimized plan runs its temporal operators in the stratum, where
	// the exec engine partitions them; the initial plan is all-DBMS and
	// must ignore Parallelism entirely.
	plan := catalog.PaperOptimizedPlan(c)
	costAt := func(w int) float64 {
		p := cost.ParamsFor(true)
		p.Parallelism = w
		got, err := cost.New(c, p).Cost(plan)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	seq, par2, par8 := costAt(1), costAt(2), costAt(8)
	if !(par8 < par2 && par2 < seq) {
		t.Errorf("parallel costs must fall with workers on a large plan: w1=%.0f w2=%.0f w8=%.0f", seq, par2, par8)
	}
	// The exchange/gather floor: parallel cost cannot drop below the
	// per-tuple routing work, so an 8-way plan is more than seq/8.
	if par8 <= seq/8 {
		t.Errorf("8-way cost %.0f must stay above the exchange floor (seq/8 = %.0f)", par8, seq/8)
	}
}

// TestReferenceParamsIgnoreParallelism: the parallel shape is an exec-engine
// property; a non-streaming calibration must price identically regardless
// of the Parallelism field (the reference evaluator cannot partition).
func TestReferenceParamsIgnoreParallelism(t *testing.T) {
	c := catalog.Paper()
	plan := catalog.PaperInitialPlan(c)
	p := cost.DefaultParams()
	seq, err := cost.New(c, p).Cost(plan)
	if err != nil {
		t.Fatal(err)
	}
	p.Parallelism = 8
	par, err := cost.New(c, p).Cost(plan)
	if err != nil {
		t.Fatal(err)
	}
	if seq != par {
		t.Errorf("non-streaming params must ignore Parallelism: %.1f vs %.1f", seq, par)
	}
}

// TestBatchDiscount pins the columnar calibration: a parallel (and
// budgeted) plan whose operators the engine batch-compiles — the hash
// family — prices cheaper under the batch discount factors than at the
// boxed per-tuple prices (the factors set to 1), while the operators
// outside the discount (the sort, the temporal group family) keep the
// boxed prices exactly. The discount is a factor, never an exemption — a
// sort-family discount once steered the optimizer onto plans whose
// layered execution lost the DBMS's order determinism.
func TestBatchDiscount(t *testing.T) {
	c := datagen.EmployeeDB(datagen.EmployeeSpec{Employees: 400, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 1})
	costWith := func(plan algebra.Node, vec bool, par int, budget int64) float64 {
		p := cost.ParamsFor(true)
		p.Parallelism = par
		p.MemoryBudget = budget
		if !vec {
			// The boxed prices: what a tuple-copying exchange and spill
			// would pay, for comparison against the calibrated discount.
			p.VecExchangeFactor, p.VecSpillFactor = 1, 1
		}
		got, err := cost.New(c, p).Cost(plan)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	// The exchange discount shows on a partitioned hash-family operator:
	// dedup over the 1200-row EMPLOYEE scan, fanned out four ways.
	dedup := algebra.NewRdup(algebra.NewTransferS(catalog.PaperProjection(c.MustNode("EMPLOYEE"))))
	boxed, vec := costWith(dedup, false, 4, 0), costWith(dedup, true, 4, 0)
	if !(vec < boxed) {
		t.Errorf("vectorized exchange must price below the boxed one: vec=%.0f boxed=%.0f", vec, boxed)
	}
	// The spill discount shows on the same operator when its build state
	// outgrows a 64 KiB budget share.
	boxedSpill, vecSpill := costWith(dedup, false, 1, 64<<10), costWith(dedup, true, 1, 64<<10)
	if !(vecSpill < boxedSpill) {
		t.Errorf("vectorized spill must price below the boxed one: vec=%.0f boxed=%.0f", vecSpill, boxedSpill)
	}
	// The paper's optimized plan partitions only sorts and temporal group
	// operators — shapes the engine exchanges tuple-wise — so the factors
	// must not move its price; a blanket discount here once steered the server
	// onto a plan whose layered execution lost the DBMS's order guarantee.
	plan := catalog.PaperOptimizedPlan(c)
	if bp, vp := costWith(plan, false, 4, 0), costWith(plan, true, 4, 0); bp != vp {
		t.Errorf("temporal-family plan must ignore the batch discount: boxed=%.0f vec=%.0f", bp, vp)
	}
	// A stratum sort spills and exchanges tuple-wise — no batch variant on
	// either path — so the discount factors must not move its price at all.
	srt := algebra.NewSort(relation.OrderSpec{relation.Key("EmpName")},
		algebra.NewTransferS(catalog.PaperProjection(c.MustNode("EMPLOYEE"))))
	for _, cfg := range []struct {
		name   string
		par    int
		budget int64
	}{{"budgeted", 1, 64 << 10}, {"parallel", 4, 0}} {
		bs, vs := costWith(srt, false, cfg.par, cfg.budget), costWith(srt, true, cfg.par, cfg.budget)
		if bs != vs {
			t.Errorf("%s sort must ignore the batch discount: boxed=%.0f vec=%.0f", cfg.name, bs, vs)
		}
	}
	// The discount scales the charges; it must not erase them. A no-charge
	// bound: sequential unbudgeted cost divided by the worker count.
	seq := costWith(dedup, true, 1, 0)
	if vec <= seq/4 {
		t.Errorf("vectorized 4-way cost %.0f must stay above the exchange floor (seq/4 = %.0f)", vec, seq/4)
	}
}

// TestScorerKeysSite: one subtree can run in the stratum in one plan and in
// the DBMS, under a TS, in another. Its state and its estimate differ
// between the sites — the DBMS guarantees no order but a sort's, and pays
// the temporal penalty — so the memos key both by (subtree, site): scoring
// the two plans through one memo must give each plan its fresh cost.
func TestScorerKeysSite(t *testing.T) {
	c := testutil.SortedCatalog(64)
	m := cost.New(c, cost.ParamsFor(true))
	shared := algebra.NewCoal(c.MustNode("L"))
	score, states := m.Scorer(), props.NewMemo()
	for _, plan := range []algebra.Node{shared, algebra.NewTransferS(shared)} {
		got, err := score(plan, states)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.Cost(plan)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: memoized cost %v, fresh %v", algebra.Canonical(plan), got, want)
		}
	}
	inStratum, err := states.State(shared, props.Stratum)
	if err != nil {
		t.Fatal(err)
	}
	inDBMS, err := states.State(shared, props.DBMS)
	if err != nil {
		t.Fatal(err)
	}
	if inStratum.Order.Empty() || !inDBMS.Order.Empty() || inDBMS.Site != props.DBMS {
		t.Errorf("stratum state %+v, DBMS state %+v", inStratum, inDBMS)
	}
}

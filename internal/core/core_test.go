package core_test

import (
	"runtime"
	"strings"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/core"
	"tqp/internal/datagen"
	"tqp/internal/equiv"
	"tqp/internal/exec"
	"tqp/internal/relation"
	"tqp/internal/testutil"
)

const paperSQL = `VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE
	EXCEPT SELECT EmpName FROM PROJECT ORDER BY EmpName ASC`

// TestRunPaperQuery drives the complete pipeline — parse, enumerate, cost,
// pick, execute in the layered architecture, verify ≡SQL — and pins the
// paper's Result relation.
func TestRunPaperQuery(t *testing.T) {
	o := core.New(catalog.Paper())
	got, plans, trace, err := o.Run(paperSQL)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := relation.MustFromRows(got.Schema(), catalog.PaperResultRows())
	ok, err := equiv.CheckSQL(equiv.ResultList, plans.OrderBy, want, got)
	if err != nil || !ok {
		t.Errorf("layered result is not the paper's Result (err=%v):\n%s", err, got)
	}
	if plans.BestCost >= plans.InitialCost {
		t.Errorf("best plan cost %.1f should beat the initial plan's %.1f",
			plans.BestCost, plans.InitialCost)
	}
	if len(trace.SQL) == 0 {
		t.Error("expected SQL shipped to the DBMS")
	}
	t.Logf("plans=%d initial=%.0f best=%.0f transferred=%d tuples",
		len(plans.All), plans.InitialCost, plans.BestCost, trace.TuplesTransferred)
}

// TestBestPlanShape: under the default cost calibration the chosen plan
// must, like the paper's Figure 6(b), evaluate the temporal operations in
// the stratum (no temporal operation below a TS) and keep a DBMS-side sort.
func TestBestPlanShape(t *testing.T) {
	o := core.New(catalog.Paper())
	plans, err := o.OptimizeSQL(paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	best := algebra.Canonical(plans.Best)
	t.Logf("best plan: %s", best)

	inDBMS := false
	var walkDBMS func(n algebra.Node, below bool)
	walkDBMS = func(n algebra.Node, below bool) {
		if below && n.Op().Temporal() {
			inDBMS = true
		}
		next := below
		if n.Op() == algebra.OpTransferS {
			next = true
		}
		for _, c := range n.Children() {
			walkDBMS(c, next)
		}
	}
	walkDBMS(plans.Best, false)
	if inDBMS {
		t.Errorf("best plan leaves a temporal operation in the DBMS: %s", best)
	}
	if !strings.Contains(best, "sort") {
		t.Errorf("best plan should retain a sort for the ORDER BY: %s", best)
	}
}

// TestExplain renders the chosen plan with property vectors and costs.
func TestExplain(t *testing.T) {
	o := core.New(catalog.Paper())
	plans, err := o.OptimizeSQL(paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	out, err := o.Explain(plans.Best, plans.ResultType)
	if err != nil {
		t.Fatal(err)
	}
	for _, wantPart := range []string{"diffT", "site=dbms", "site=stratum", "rows≈", "["} {
		if !strings.Contains(out, wantPart) {
			t.Errorf("explain output missing %q:\n%s", wantPart, out)
		}
	}
}

// TestRunVariousQueries exercises the pipeline across statement shapes and
// both architectures' agreement.
func TestRunVariousQueries(t *testing.T) {
	o := core.New(catalog.Paper())
	for _, sql := range []string{
		"SELECT * FROM EMPLOYEE",
		"SELECT DISTINCT Dept FROM EMPLOYEE ORDER BY Dept",
		"SELECT EmpName, COUNT(*) AS spells FROM EMPLOYEE GROUP BY EmpName ORDER BY EmpName",
		"VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE ORDER BY EmpName",
		"VALIDTIME SELECT EmpName FROM EMPLOYEE UNION SELECT EmpName FROM PROJECT",
		"SELECT 1.EmpName, Prj FROM EMPLOYEE, PROJECT WHERE 1.EmpName = 2.EmpName AND Dept = 'Sales'",
		"VALIDTIME SELECT EmpName, COUNT(*) AS load FROM PROJECT GROUP BY EmpName ORDER BY EmpName",
	} {
		if _, _, _, err := o.Run(sql); err != nil {
			t.Errorf("%s: %v", sql, err)
		}
	}
}

// TestDBMSSeedIndependence: the ≡SQL verification inside Run must succeed
// for any DBMS order-nondeterminism seed — correctness cannot depend on the
// order the DBMS happens to produce.
func TestDBMSSeedIndependence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		o := core.New(catalog.Paper(), core.WithDBMSSeed(seed))
		got, _, _, err := o.Run(paperSQL)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := relation.MustFromRows(got.Schema(), catalog.PaperResultRows())
		ok, _ := equiv.CheckSQL(equiv.ResultList,
			relation.OrderSpec{relation.Key("EmpName")}, want, got)
		if !ok {
			t.Errorf("seed %d: wrong result:\n%s", seed, got)
		}
	}
}

// TestPrepareAllocsBounded: preparing a plan.cold statement at 100
// employees — parse, plan, the 188-plan beam search with its order chases,
// costing — stays within 30,000 allocations, because the beam interns its
// plans and derives each distinct subtree's schema, state, cost and rule
// matches once per search.
func TestPrepareAllocsBounded(t *testing.T) {
	db := datagen.EmployeeDB(datagen.EmployeeSpec{Employees: 100, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 1})
	opt := core.New(db, core.WithEngine(exec.NewSpec(exec.Config{})), core.WithDBMSSeed(1))
	sql := testutil.ColdStatements(1, 1)[0]
	var prep *core.Prepared
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if prep, err = opt.Prepare(sql); err != nil {
			t.Fatal(err)
		}
	})
	if prep.PlanCount != 188 {
		t.Fatalf("the beam found %d plans, want 188", prep.PlanCount)
	}
	if allocs > 30000 {
		t.Errorf("Prepare allocates %.0f times per statement, want ≤ 30000", allocs)
	}
	t.Logf("Prepare: %.0f allocations", allocs)
}

// TestPrepareBytesBounded: preparing the same plan.cold statement allocates
// at most 600,000 bytes. The search's memos — states, estimates, rule
// matches and the seen set — are slices indexed by the intern table's node
// ids, not maps keyed by node (about 804,000 bytes when they were).
func TestPrepareBytesBounded(t *testing.T) {
	db := datagen.EmployeeDB(datagen.EmployeeSpec{Employees: 100, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 1})
	opt := core.New(db, core.WithEngine(exec.NewSpec(exec.Config{})), core.WithDBMSSeed(1))
	sql := testutil.ColdStatements(1, 1)[0]
	prepare := func() {
		if _, err := opt.Prepare(sql); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prepare() // warm up: package-level tables and the catalog's caches
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		prepare()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if bytes > 600000 {
		t.Errorf("Prepare allocates %d bytes per statement, want ≤ 600000", bytes)
	}
	t.Logf("Prepare: %d bytes", bytes)
}

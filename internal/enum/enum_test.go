package enum_test

import (
	"math/rand"
	"sort"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/core"
	"tqp/internal/datagen"
	"tqp/internal/enum"
	"tqp/internal/equiv"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/relation"
	"tqp/internal/rules"
	"tqp/internal/testutil"
	"tqp/internal/tsql"
)

func canonSet(plans []algebra.Node) []string {
	out := make([]string, len(plans))
	for i, p := range plans {
		out[i] = algebra.Canonical(p)
	}
	sort.Strings(out)
	return out
}

// TestEnumerateFindsPaperPlan runs the Figure 5 algorithm on the paper's
// initial plan (Figure 2(a)) with the full rule catalog and checks that the
// walk discovers both the intermediate plan of Figure 6(a) and the final
// plan of Figure 6(b).
func TestEnumerateFindsPaperPlan(t *testing.T) {
	c := catalog.Paper()
	initial := catalog.PaperInitialPlan(c)
	res, err := enum.Enumerate(initial, enum.Config{ResultType: equiv.ResultList})
	if err != nil {
		t.Fatal(err)
	}
	if res.Capped {
		t.Fatalf("enumeration hit the plan cap (%d plans); tighten the rule set", len(res.Plans))
	}
	t.Logf("enumerated %d plans", len(res.Plans))

	seen := make(map[string]bool, len(res.Plans))
	for _, p := range res.Plans {
		seen[algebra.Canonical(p)] = true
	}
	mid := algebra.Canonical(catalog.PaperIntermediatePlan(c))
	final := algebra.Canonical(catalog.PaperOptimizedPlan(c))
	if !seen[mid] {
		t.Errorf("Figure 6(a) plan not found among %d plans", len(res.Plans))
	}
	if !seen[final] {
		t.Errorf("Figure 6(b) plan not found among %d plans", len(res.Plans))
	}

	if !seen[final] || testing.Verbose() {
		for _, p := range res.Plans[:min(len(res.Plans), 30)] {
			t.Logf("plan: %s", algebra.Canonical(p))
		}
	}
}

// TestEnumerationCorrectness is Theorem 6.1 in executable form: every
// enumerated plan must be ≡SQL-equivalent to the initial plan — here for a
// list result ordered by EmpName, ≡M plus agreement on the EmpName
// projection. The exhaustive closure over the paper's catalog runs on the
// reference evaluator; the beam's plans, order chases included, over the
// statement corpus run on exec (see beamCorpusCorrect).
func TestEnumerationCorrectness(t *testing.T) {
	t.Run("beam-corpus-exec", beamCorpusCorrect)

	c := catalog.Paper()
	initial := catalog.PaperInitialPlan(c)
	res, err := enum.Enumerate(initial, enum.Config{ResultType: equiv.ResultList})
	if err != nil {
		t.Fatal(err)
	}
	ev := eval.New(c)
	want, err := ev.Eval(initial)
	if err != nil {
		t.Fatal(err)
	}
	orderBy := relation.OrderSpec{relation.Key("EmpName")}
	for i, p := range res.Plans {
		got, err := ev.Eval(p)
		if err != nil {
			t.Fatalf("plan %d (%s): %v", i, algebra.Canonical(p), err)
		}
		ok, err := equiv.CheckSQL(equiv.ResultList, orderBy, want, got)
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		if !ok {
			steps := res.Derivation(p)
			t.Errorf("plan %d is not ≡SQL to the initial plan: %s (derived via %v)",
				i, algebra.Canonical(p), steps)
		}
	}
}

// TestEnumerationDeterminism checks the paper's determinism claim: the
// generated plan set does not depend on the order of transformation rules.
func TestEnumerationDeterminism(t *testing.T) {
	c := catalog.Paper()
	initial := catalog.PaperInitialPlan(c)

	base, err := enum.Enumerate(initial, enum.Config{ResultType: equiv.ResultList})
	if err != nil {
		t.Fatal(err)
	}
	baseSet := canonSet(base.Plans)

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3; trial++ {
		shuffled := rules.All()
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		res, err := enum.Enumerate(initial, enum.Config{
			ResultType: equiv.ResultList,
			Rules:      shuffled,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := canonSet(res.Plans)
		if len(got) != len(baseSet) {
			t.Fatalf("trial %d: %d plans vs %d with default rule order", trial, len(got), len(baseSet))
		}
		for i := range got {
			if got[i] != baseSet[i] {
				t.Fatalf("trial %d: plan sets differ at %d:\n%s\nvs\n%s", trial, i, got[i], baseSet[i])
			}
		}
	}
}

// TestGuardMatters: without the property guard, rules of weak equivalence
// types would be applied in positions where they change the query result.
// We verify the guard actually rejects applications on the paper's plan
// (e.g., S2 — drop the sort — must be rejected at the top of an ORDER BY
// query), and that for a multiset-result query the same rule is admitted.
func TestGuardMatters(t *testing.T) {
	c := catalog.Paper()
	initial := catalog.PaperInitialPlan(c)

	res, err := enum.Enumerate(initial, enum.Config{ResultType: equiv.ResultList})
	if err != nil {
		t.Fatal(err)
	}
	if res.GuardRejections["S2"] == 0 {
		t.Error("expected the guard to reject S2 (sort elimination) somewhere in a list-result query")
	}
	// Dropping the sort must not be possible anywhere in this plan: every
	// sort in every enumerated plan sits on the order-critical path.
	for _, p := range res.Plans {
		if !planOrdered(t, c, p) {
			t.Errorf("enumerated plan loses the EmpName order: %s", algebra.Canonical(p))
		}
	}

	resM, err := enum.Enumerate(initial, enum.Config{ResultType: equiv.ResultMultiset})
	if err != nil {
		t.Fatal(err)
	}
	if resM.Applications["S2"] == 0 {
		t.Error("for a multiset result the guard should admit S2 (sort elimination)")
	}
	if len(resM.Plans) <= len(res.Plans) {
		t.Errorf("multiset result should admit at least as many plans: %d vs %d",
			len(resM.Plans), len(res.Plans))
	}
}

func planOrdered(t *testing.T, c *catalog.Catalog, p algebra.Node) bool {
	t.Helper()
	r, err := eval.New(c).Eval(p)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return r.SortedBy(relation.OrderSpec{relation.Key("EmpName")})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// beamCorpusCorrect runs every plan the beam search generates for the
// paper statement and 40 plan.cold statements (seed 7) on exec —
// sequential, at Parallelism 4 and under a 512 KiB budget, each search
// costed for its engine — and checks each result ≡SQL to the reference
// result of the statement's initial plan. Its vacuity guard: some chosen
// plan sorts below a TS, the order the chase pushes into the DBMS.
func beamCorpusCorrect(t *testing.T) {
	db := datagen.EmployeeDB(datagen.EmployeeSpec{Employees: corpusEmployees, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 7})
	sqls := append([]string{paperSQL}, testutil.ColdStatements(7, 40)...)
	sortedInDBMS, runs := 0, 0
	for _, cfg := range []exec.Config{{}, {Parallelism: 4}, {MemoryBudget: 512 << 10, SpillDir: t.TempDir()}} {
		spec := exec.NewSpec(cfg)
		opt := core.New(db, core.WithEngine(spec))
		for _, sql := range sqls {
			q, err := tsql.Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			initial, err := q.Plan(db)
			if err != nil {
				t.Fatal(err)
			}
			want, err := opt.Reference(initial)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := opt.OptimizeBeam(initial, q.ResultType(), q.OrderBy())
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range ps.All {
				got, _, err := opt.ExecutePlan(p, spec)
				if err != nil {
					t.Fatalf("%s: plan %s: %v", spec.Name, algebra.Canonical(p), err)
				}
				runs++
				if ok, err := equiv.CheckSQL(q.ResultType(), q.OrderBy(), want, got); err != nil || !ok {
					t.Fatalf("%s: plan %s is not ≡SQL to the initial plan (derived via %v, err=%v)",
						spec.Name, algebra.Canonical(p), ps.Enumeration.Derivation(p), err)
				}
			}
			if sortBelowTS(ps.Best) {
				sortedInDBMS++
			}
		}
	}
	if sortedInDBMS == 0 {
		t.Error("no chosen plan sorts below a TS: the order chase never reached the DBMS")
	}
	t.Logf("%d plan runs; %d chosen plans sort in the DBMS", runs, sortedInDBMS)
}

// corpusEmployees sizes the correctness corpus's database: every plan of
// every statement runs three times, so it is smaller than the benchmark's.
const corpusEmployees = 40

const paperSQL = `VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE
	EXCEPT SELECT EmpName FROM PROJECT ORDER BY EmpName ASC`

// sortBelowTS reports that plan sorts inside the DBMS.
func sortBelowTS(plan algebra.Node) bool {
	found := false
	algebra.Walk(plan, func(n algebra.Node, _ algebra.Path) bool {
		if n.Op() == algebra.OpTransferS {
			algebra.Walk(n, func(m algebra.Node, _ algebra.Path) bool {
				found = found || m.Op() == algebra.OpSort
				return true
			})
		}
		return !found
	})
	return found
}

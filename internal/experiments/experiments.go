// Package experiments regenerates every table and figure of the paper:
// E1–E9 reproduce Figures 1–6, Table 1 and Theorem 3.1, and E10 ablates the
// optimizer. The paper is a foundations paper — its artifacts are worked
// examples, operation tables and algorithm properties rather than
// wall-clock plots — so each experiment reproduces its artifact exactly and
// reports simulated work units, never timings; the statement benchmark
// (BENCHMARK.json, bench/) is where speed is measured.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/core"
	"tqp/internal/cost"
	"tqp/internal/datagen"
	"tqp/internal/enum"
	"tqp/internal/equiv"
	"tqp/internal/eval"
	"tqp/internal/props"
	"tqp/internal/relation"
	"tqp/internal/rules"
	"tqp/internal/stratum"
	"tqp/internal/tsql"
)

// Report is one experiment's rendered outcome.
type Report struct {
	ID    string
	Title string
	Pass  bool
	Body  string
}

// PaperQuerySQL is the running example as a statement of the tsql dialect.
const PaperQuerySQL = `VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE
EXCEPT SELECT EmpName FROM PROJECT ORDER BY EmpName ASC`

// All runs every experiment in order on the reference evaluator.
func All() []Report { return AllWith(eval.Reference()) }

// AllWith runs every experiment with the given physical engine executing
// stratum subplans and plan evaluations. The artifacts must come out
// identical on either engine — the engines agree list-exactly — so running
// `tqbench -engine exec` is itself an end-to-end differential check.
func AllWith(spec eval.EngineSpec) []Report {
	return []Report{
		E1With(spec), E2With(spec), E3With(spec), E4Table1(), E5Theorem31(),
		E6Figure4(), E7Figure6(), E8Figure5(), E9With(spec), E10Ablation(),
	}
}

type reportBuilder struct {
	strings.Builder
	pass bool
}

func newReport() *reportBuilder { return &reportBuilder{pass: true} }

func (b *reportBuilder) printf(format string, args ...any) {
	fmt.Fprintf(b, format, args...)
}

func (b *reportBuilder) check(ok bool, what string) {
	status := "ok"
	if !ok {
		status = "FAIL"
		b.pass = false
	}
	b.printf("  [%-4s] %s\n", status, what)
}

// E1Figure1 reproduces Figure 1: the EMPLOYEE and PROJECT instances and the
// exact Result relation of the running example query.
func E1Figure1() Report { return E1With(eval.Reference()) }

// E1With is E1Figure1 on an explicit engine.
func E1With(spec eval.EngineSpec) Report {
	b := newReport()
	c := catalog.Paper()
	emp, _ := c.Resolve("EMPLOYEE")
	prj, _ := c.Resolve("PROJECT")
	b.printf("EMPLOYEE (%d tuples):\n%s\nPROJECT (%d tuples):\n%s\n",
		emp.Len(), indent(emp.String()), prj.Len(), indent(prj.String()))

	got, err := spec.New(c).Eval(catalog.PaperInitialPlan(c))
	if err != nil {
		b.pass = false
		b.printf("eval error: %v\n", err)
	} else {
		b.printf("Result:\n%s\n", indent(got.String()))
		want := relation.MustFromRows(got.Schema(), catalog.PaperResultRows())
		b.check(got.EqualAsList(want), "result matches Figure 1's Result relation tuple-for-tuple")
		b.check(!got.HasSnapshotDuplicates(), "result has no duplicates in snapshots")
		b.check(got.IsCoalesced(), "result is coalesced")
		b.check(got.SortedBy(relation.OrderSpec{relation.Key("EmpName")}), "result is sorted by EmpName")
	}
	return Report{ID: "E1", Title: "Figure 1 — example relations and the query's Result", Pass: b.pass, Body: b.String()}
}

// E2With reproduces Figure 2 on an explicit engine: the initial algebra
// expression from the user-level query, the optimized plan, and — as the
// extension measurement — their costs under the model and their simulated
// execution work.
func E2With(spec eval.EngineSpec) Report {
	b := newReport()
	c := catalog.Paper()
	q, err := tsql.Parse(PaperQuerySQL)
	if err != nil {
		return Report{ID: "E2", Title: "Figure 2", Body: err.Error()}
	}
	initial, err := q.Plan(c)
	if err != nil {
		return Report{ID: "E2", Title: "Figure 2", Body: err.Error()}
	}
	b.check(algebra.Canonical(initial) == algebra.Canonical(catalog.PaperInitialPlan(c)),
		"user-level query maps to the initial plan of Figure 2(a)")
	b.printf("Figure 2(a):\n%s", indent(algebra.Render(initial, nil)))
	final := catalog.PaperOptimizedPlan(c)
	b.printf("Figure 2(b)/6(b):\n%s", indent(algebra.Render(final, nil)))

	model := cost.New(c, cost.ForEngine(eval.Reference()))
	ci, _ := model.Cost(initial)
	cf, _ := model.Cost(final)
	b.printf("  model cost: initial=%.0f optimized=%.0f (%.1fx)\n", ci, cf, ci/cf)
	b.check(cf < ci, "optimized plan is cheaper under the cost model")

	for _, pl := range []struct {
		name string
		plan algebra.Node
	}{{"initial", initial}, {"optimized", final}} {
		_, tr, err := stratum.NewWithEngine(c, 1, spec).Execute(pl.plan)
		if err != nil {
			b.pass = false
			b.printf("  %s execution error: %v\n", pl.name, err)
			continue
		}
		b.printf("  %s simulated units: stratum=%.0f dbms=%.0f transfer=%.0f total=%.0f\n",
			pl.name, tr.StratumUnits, tr.DBMSUnits, tr.TransferUnits, tr.TotalUnits())
	}
	return Report{ID: "E2", Title: "Figure 2 — initial vs optimized query plan", Pass: b.pass, Body: b.String()}
}

// E3With reproduces Figure 3 on an explicit engine: R1 = π(EMPLOYEE),
// R2 = rdup(R1) with the 1.T1/1.T2 renaming, R3 = rdupᵀ(R1) with John's
// period cut to [8,11).
func E3With(spec eval.EngineSpec) Report {
	b := newReport()
	c := catalog.Paper()
	ev := spec.New(c)
	r1n := catalog.PaperProjection(c.MustNode("EMPLOYEE"))

	r1, _ := ev.Eval(r1n)
	r2, _ := ev.Eval(algebra.NewRdup(r1n))
	r3, _ := ev.Eval(algebra.NewTRdup(r1n))
	b.printf("R1 = π(EMPLOYEE):\n%s\nR2 = rdup(R1):\n%s\nR3 = rdupT(R1):\n%s\n",
		indent(r1.String()), indent(r2.String()), indent(r3.String()))

	b.check(r2.Schema().Has("1.T1") && r2.Schema().Has("1.T2"),
		"rdup result renames time attributes (snapshot relation)")
	wantR3 := relation.MustFromRows(r3.Schema(), [][]any{
		{"John", 1, 8}, {"John", 8, 11}, {"Anna", 2, 6}, {"Anna", 6, 12},
	})
	b.check(r3.EqualAsList(wantR3), "R3 matches the paper (John's second period becomes [8,11))")
	b.check(r2.Len() == 4 && r1.Len() == 5, "R2 removes exactly Anna's duplicate [2,6) tuple")
	return Report{ID: "E3", Title: "Figure 3 — regular vs temporal duplicate elimination", Pass: b.pass, Body: b.String()}
}

// E4Table1 verifies Table 1 row by row on generated data: each operation's
// order propagation, duplicate behaviour (eliminates / retains / generates)
// and coalescing behaviour (enforces / retains / destroys).
func E4Table1() Report {
	b := newReport()
	for _, row := range table1Rows() {
		err := row.verify()
		b.check(err == nil, fmt.Sprintf("%-10s order=%-28s duplicates=%-10s coalescing=%s%s",
			row.name, row.order, row.dups, row.coal, errSuffix(err)))
	}
	return Report{ID: "E4", Title: "Table 1 — operation overview verified dynamically", Pass: b.pass, Body: b.String()}
}

// E5Theorem31 verifies the equivalence implication lattice of Theorem 3.1
// over randomized relation pairs.
func E5Theorem31() Report {
	b := newReport()
	checked, violations := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		a := datagen.Temporal(datagen.TemporalSpec{Rows: 8, Values: 3, DupFrac: 0.3, AdjFrac: 0.3, Seed: seed})
		variants := equivalenceVariants(a, seed)
		for _, v := range variants {
			holding := equiv.Holding(a, v)
			set := make(map[equiv.Type]bool, len(holding))
			for _, h := range holding {
				set[h] = true
			}
			for _, t := range holding {
				for _, u := range equiv.All() {
					if t.Implies(u) && !set[u] {
						violations++
					}
					checked++
				}
			}
		}
	}
	b.printf("  %d implication checks over randomized pairs, %d violations\n", checked, violations)
	b.check(violations == 0, "Theorem 3.1 lattice holds")
	return Report{ID: "E5", Title: "Theorem 3.1 — equivalence implication lattice", Pass: b.pass, Body: b.String()}
}

// E6Figure4 summarizes the rule catalog: every rule of Figure 4 and
// Section 4 with its equivalence type; the full randomized verification
// lives in the test suite (internal/rules).
func E6Figure4() Report {
	b := newReport()
	all := rules.All()
	byType := map[equiv.Type][]string{}
	for _, r := range all {
		byType[r.Type] = append(byType[r.Type], r.Name)
	}
	for _, t := range equiv.All() {
		names := byType[t]
		sort.Strings(names)
		b.printf("  %-4s %2d rules: %s\n", t, len(names), strings.Join(names, " "))
	}
	b.printf("  total %d rules; deviations from the paper's types: C5, C6 (≡L→≡SM), C9 (≡L→≡M) — see README, Deviations from the paper\n", len(all))
	b.check(len(all) >= 40, "catalog covers D1–D6, C1–C10, S1–S3(+pushdowns), conventional and transfer rules")
	return Report{ID: "E6", Title: "Figure 4 / Section 4 — transformation-rule catalog", Pass: b.pass, Body: b.String()}
}

// E7Figure6 reproduces the property-annotated operator trees of Figure 6.
func E7Figure6() Report {
	b := newReport()
	c := catalog.Paper()
	for _, pl := range []struct {
		name string
		plan algebra.Node
	}{
		{"Figure 2(a) — initial", catalog.PaperInitialPlan(c)},
		{"Figure 6(a) — after D2+C10", catalog.PaperIntermediatePlan(c)},
		{"Figure 6(b) — final", catalog.PaperOptimizedPlan(c)},
	} {
		pm, err := props.Infer(pl.plan, equiv.ResultList, nil)
		if err != nil {
			b.pass = false
			continue
		}
		b.printf("%s:\n%s", pl.name, indent(algebra.Render(pl.plan, func(n algebra.Node, _ algebra.Path) string {
			return pm[n].Vector()
		})))
	}
	// The load-bearing claims of Section 5.2's discussion.
	initial := catalog.PaperInitialPlan(c)
	pm, _ := props.Infer(initial, equiv.ResultList, nil)
	sortNode := initial.Children()[0]
	coal := sortNode.Children()[0]
	topRdup := coal.Children()[0]
	diff := topRdup.Children()[0]
	leftRdup := diff.Children()[0]
	rightProj := diff.Children()[1]
	b.check(!pm[coal].OrderRequired, "below the sort, order need not be preserved")
	b.check(!pm[diff].DuplicatesRelevant, "below the top rdupT, duplicates are not relevant")
	b.check(pm[leftRdup].DuplicatesRelevant, "…except at the lower rdupT guarding the difference's left argument")
	b.check(!pm[diff].PeriodPreserving, "below the coalescing, periods need not be preserved")
	b.check(!pm[rightProj].OrderRequired && !pm[rightProj].DuplicatesRelevant && !pm[rightProj].PeriodPreserving,
		"the right branch of the temporal difference is fully unconstrained")
	return Report{ID: "E7", Title: "Table 2 + Figure 6 — operation properties", Pass: b.pass, Body: b.String()}
}

// E8Figure5 runs the enumeration algorithm on the running example:
// discovery of the paper's optimized plan, determinism, and the guard's
// rejection statistics.
func E8Figure5() Report {
	b := newReport()
	c := catalog.Paper()
	initial := catalog.PaperInitialPlan(c)
	res, err := enum.Enumerate(initial, enum.Config{ResultType: equiv.ResultList})
	if err != nil {
		return Report{ID: "E8", Title: "Figure 5", Body: err.Error()}
	}
	b.printf("  %d plans enumerated from the initial plan (cap not hit: %v)\n", len(res.Plans), !res.Capped)
	seen := map[string]bool{}
	for _, p := range res.Plans {
		seen[algebra.Canonical(p)] = true
	}
	b.check(seen[algebra.Canonical(catalog.PaperIntermediatePlan(c))], "Figure 6(a) plan discovered")
	b.check(seen[algebra.Canonical(catalog.PaperOptimizedPlan(c))], "Figure 6(b) plan discovered")

	if step := res.Derivation(catalog.PaperOptimizedPlan(c)); len(step) > 0 {
		names := make([]string, len(step))
		for i, s := range step {
			names[i] = s.Rule
		}
		b.printf("  a derivation of Figure 6(b): %s\n", strings.Join(names, " → "))
	}
	rejected := 0
	for _, n := range res.GuardRejections {
		rejected += n
	}
	applied := 0
	for _, n := range res.Applications {
		applied += n
	}
	b.printf("  guard (Figure 5): %d applications admitted, %d rejected by the property vectors\n", applied, rejected)
	b.check(rejected > 0, "the property guard is load-bearing (it rejected unsafe applications)")
	return Report{ID: "E8", Title: "Figure 5 — plan enumeration algorithm", Pass: b.pass, Body: b.String()}
}

// E9Stratum measures the Section 2.1 narrative on scaled databases: the
// optimized division of labour (temporal operations in the stratum, sort in
// the DBMS) beats computing everything in the DBMS, increasingly so with
// size.
func E9Stratum() Report { return E9With(eval.Reference()) }

// E9With is E9Stratum on an explicit engine.
func E9With(spec eval.EngineSpec) Report {
	b := newReport()
	b.printf("  %-10s %14s %14s %8s\n", "employees", "initial units", "optimized", "speedup")
	okAll := true
	for _, emps := range []int{10, 30, 100, 300} {
		c := datagen.EmployeeDB(datagen.EmployeeSpec{
			Employees: emps, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 42,
		})
		q, _ := tsql.Parse(PaperQuerySQL)
		initial, err := q.Plan(c)
		if err != nil {
			b.pass = false
			continue
		}
		opt := core.New(c, core.WithEngine(spec))
		plans, err := opt.Optimize(initial, equiv.ResultList, q.OrderBy())
		if err != nil {
			b.pass = false
			continue
		}
		_, trI, err1 := stratum.NewWithEngine(c, 1, spec).Execute(initial)
		_, trB, err2 := stratum.NewWithEngine(c, 1, spec).Execute(plans.Best)
		if err1 != nil || err2 != nil {
			b.pass = false
			continue
		}
		speedup := trI.TotalUnits() / trB.TotalUnits()
		b.printf("  %-10d %14.0f %14.0f %7.1fx\n", emps, trI.TotalUnits(), trB.TotalUnits(), speedup)
		okAll = okAll && speedup > 1
	}
	b.check(okAll, "the optimized division of labour wins at every scale")
	return Report{ID: "E9", Title: "Section 2.1/6 — stratum vs DBMS division of labour", Pass: b.pass, Body: b.String()}
}

// E10Ablation ablates the design choices: enumerate with (i) the full rule
// set, (ii) ≡L rules only (no weak equivalence types), (iii) no transfer
// rules — and compare the best costs the model can reach.
func E10Ablation() Report {
	b := newReport()
	c := catalog.Paper()
	q, _ := tsql.Parse(PaperQuerySQL)
	initial, _ := q.Plan(c)

	variants := []struct {
		name  string
		rules []rules.Rule
	}{
		{"full catalog", rules.All()},
		{"≡L rules only", onlyType(rules.All(), equiv.List)},
		{"no transfer rules", without(rules.All(), "T")},
		{"no sort pushdown", without(rules.All(), "S")},
	}
	costs := make(map[string]float64, len(variants))
	for _, v := range variants {
		ps, err := core.New(c, core.WithRules(v.rules)).Optimize(initial, equiv.ResultList, nil)
		if err != nil {
			b.pass = false
			continue
		}
		costs[v.name] = ps.BestCost
		b.printf("  %-18s %4d plans, best cost %8.0f\n", v.name, len(ps.All), ps.BestCost)
	}
	b.check(costs["full catalog"] <= costs["≡L rules only"],
		"weak-equivalence rules never hurt and typically help")
	b.check(costs["full catalog"] < costs["no transfer rules"],
		"transfer rules are required to re-partition work between the sites")
	return Report{ID: "E10", Title: "Extension — optimizer ablations", Pass: b.pass, Body: b.String()}
}

func onlyType(rs []rules.Rule, t equiv.Type) []rules.Rule {
	var out []rules.Rule
	for _, r := range rs {
		if r.Type == t {
			out = append(out, r)
		}
	}
	return out
}

// without drops rules whose name starts with the given prefix followed by a
// digit or nothing else of note (the catalog's families share prefixes).
func without(rs []rules.Rule, prefix string) []rules.Rule {
	var out []rules.Rule
	for _, r := range rs {
		if strings.HasPrefix(r.Name, prefix) {
			continue
		}
		out = append(out, r)
	}
	return out
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "    " + l
	}
	return strings.Join(lines, "\n") + "\n"
}

func errSuffix(err error) string {
	if err == nil {
		return ""
	}
	return " — " + err.Error()
}

// equivalenceVariants derives relations standing in various equivalence
// relationships to a.
func equivalenceVariants(a *relation.Relation, seed int64) []*relation.Relation {
	src := eval.MapSource{"A": a}
	ev := eval.New(src)
	node := algebra.NewRel("A", a.Schema(), algebra.BaseInfo{})
	var out []*relation.Relation
	for _, plan := range []algebra.Node{
		node,
		algebra.NewSort(relation.OrderSpec{relation.Key("Name")}, node),
		algebra.NewTRdup(node),
		algebra.NewCoal(node),
		algebra.NewCoal(algebra.NewTRdup(node)),
		algebra.NewUnionAll(node, node),
	} {
		if r, err := ev.Eval(plan); err == nil {
			out = append(out, r)
		}
	}
	b := datagen.Temporal(datagen.TemporalSpec{Rows: 8, Values: 3, DupFrac: 0.3, AdjFrac: 0.3, Seed: seed + 1000})
	out = append(out, b)
	return out
}

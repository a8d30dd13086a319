package core_test

import (
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/core"
	"tqp/internal/datagen"
	"tqp/internal/exec"
	"tqp/internal/testutil"
	"tqp/internal/tsql"
)

// regretCorpus is the statement benchmark's planning corpus at its scale:
// the paper statement over 2,000 employees, then 40 plan.cold statements
// over 100, all generated from seed 7.
func regretCorpus() (cats []*catalog.Catalog, sqls []string) {
	paperDB := datagen.EmployeeDB(datagen.EmployeeSpec{Employees: 2000, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 7})
	coldDB := datagen.EmployeeDB(datagen.EmployeeSpec{Employees: 100, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 7})
	cats, sqls = append(cats, paperDB), append(sqls, engineTestSQL)
	for _, sql := range testutil.ColdStatements(7, 40) {
		cats, sqls = append(cats, coldDB), append(sqls, sql)
	}
	return cats, sqls
}

// TestBeamRegret: the plan Prepare picks costs what the exhaustive Figure 5
// closure's cheapest plan costs — on the paper statement always, and on at
// least 39 of the 41 corpus statements. Before the beam chased pushed sorts
// it missed the optimum on all 41, by up to 1.52×: a sort pushed one level
// scores worse until an operator spends its order, so the beam pruned the
// path to the optimum.
func TestBeamRegret(t *testing.T) {
	cats, sqls := regretCorpus()
	hits := 0
	for i, sql := range sqls {
		opt := core.New(cats[i], core.WithEngine(exec.NewSpec(exec.Config{})))
		prep, err := opt.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		q, err := tsql.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		initial, err := q.Plan(cats[i])
		if err != nil {
			t.Fatal(err)
		}
		full, err := opt.Optimize(initial, q.ResultType(), q.OrderBy())
		if err != nil {
			t.Fatal(err)
		}
		if prep.BestCost == full.BestCost {
			hits++
		} else {
			t.Logf("statement %d: beam %.0f, exhaustive %.0f (%s)", i, prep.BestCost, full.BestCost, algebra.Canonical(full.Best))
		}
		if i == 0 && prep.BestCost != full.BestCost {
			t.Errorf("paper statement: Prepare's plan costs %.0f, the exhaustive minimum %.0f", prep.BestCost, full.BestCost)
		}
	}
	if hits < 39 {
		t.Errorf("Prepare reached the exhaustive minimum on %d of %d statements, want ≥ 39", hits, len(sqls))
	}
	t.Logf("Prepare at the exhaustive minimum on %d of %d statements", hits, len(sqls))
}

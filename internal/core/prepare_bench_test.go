package core_test

import (
	"testing"

	"tqp/internal/core"
	"tqp/internal/datagen"
	"tqp/internal/exec"
	"tqp/internal/testutil"
)

// BenchmarkPrepareCold times planning alone: Prepare — parse, translate,
// the beam search and its costing — on the statement benchmark's plan.cold
// statements over a 100-employee database, one distinct statement per
// iteration so that nothing is cached between them. It reports allocations
// per statement and plans scored per statement, planning's own layer
// figures.
func BenchmarkPrepareCold(b *testing.B) {
	db := datagen.EmployeeDB(datagen.EmployeeSpec{Employees: 100, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 7})
	opt := core.New(db, core.WithEngine(exec.NewSpec(exec.Config{})), core.WithDBMSSeed(1))
	stmts := testutil.ColdStatements(7, 64)
	b.ReportAllocs()
	b.ResetTimer()
	plans := 0
	for i := 0; i < b.N; i++ {
		prep, err := opt.Prepare(stmts[i%len(stmts)])
		if err != nil {
			b.Fatal(err)
		}
		plans += prep.PlanCount
	}
	b.ReportMetric(float64(plans)/float64(b.N), "plans/op")
}

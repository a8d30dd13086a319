package core_test

import (
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/core"
	"tqp/internal/datagen"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/relation"
)

// BenchmarkRegions times whole statements through core.ExecutePlan — the
// path tqserver and tqcoord run — at the statement benchmark's size (2000
// employees): the prepared paper statement unbudgeted and under the 512 KiB
// budget that makes it spill, a plan whose region contains ⊔, and one whose
// region contains a spilling sort.
func BenchmarkRegions(b *testing.B) {
	db := datagen.EmployeeDB(datagen.EmployeeSpec{Employees: 2000, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 1})
	plain := exec.NewSpec(exec.Config{})
	budget := exec.NewSpec(exec.Config{MemoryBudget: 512 << 10, SpillDir: b.TempDir()})
	opt := core.New(db, core.WithEngine(plain), core.WithDBMSSeed(1))
	prep, err := opt.Prepare(engineTestSQL)
	if err != nil {
		b.Fatal(err)
	}
	names := func(rel string) algebra.Node {
		return algebra.NewTransferS(catalog.PaperProjection(db.MustNode(rel)))
	}
	byName := relation.OrderSpec{relation.Key("EmpName")}
	for _, bc := range []struct {
		name string
		plan algebra.Node
		spec eval.EngineSpec
	}{
		{"paper", prep.Plan, plain},
		{"paper-512K", prep.Plan, budget},
		{"unionall", algebra.NewCoal(algebra.NewTRdup(algebra.NewUnionAll(names("EMPLOYEE"), names("PROJECT")))), plain},
		{"sort-512K", algebra.NewCoal(algebra.NewSort(byName, algebra.NewUnionAll(names("EMPLOYEE"), names("PROJECT")))), budget},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, tr, err := opt.ExecutePlan(bc.plan, bc.spec)
				if err != nil {
					b.Fatal(err)
				}
				if r.Len() == 0 || (bc.spec.MemoryBudget > 0 && tr.SpilledBytes == 0) {
					b.Fatalf("%d rows, %d bytes spilled", r.Len(), tr.SpilledBytes)
				}
			}
		})
	}
}

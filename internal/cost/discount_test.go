package cost

import (
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/datagen"
	"tqp/internal/exec"
	"tqp/internal/relation"
)

// TestBatchDiscount pins the columnar calibration through its one lookup,
// batchDiscount: on the exec engine the hash family's exchange and spill
// charges price below the boxed per-tuple prices (the factors at 1), while
// the operators outside the discount — the sort, the temporal group family
// — keep the boxed prices exactly. The discount is a factor, never an
// exemption: a sort-family discount once steered the optimizer onto plans
// whose layered execution lost the DBMS's order determinism.
func TestBatchDiscount(t *testing.T) {
	c := datagen.EmployeeDB(datagen.EmployeeSpec{Employees: 400, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 1})
	at := func(par int, budget int64) Params {
		return ForEngine(exec.NewSpec(exec.Config{Parallelism: par, MemoryBudget: budget}))
	}
	// The exchange discount shows on a partitioned hash-family operator:
	// dedup over the 1200-row EMPLOYEE scan, fanned out four ways.
	dedup := algebra.NewRdup(algebra.NewTransferS(catalog.PaperProjection(c.MustNode("EMPLOYEE"))))
	par4 := at(4, 0)
	es, err := New(c, par4).Plan(dedup)
	if err != nil {
		t.Fatal(err)
	}
	in, out := es["0"].Rows, es["ε"].Rows
	ex, sp := par4.batchDiscount(dedup.Op())
	if vec, boxed := par4.parallelShape(in, in, out, ex), par4.parallelShape(in, in, out, 1); !(vec < boxed) {
		t.Errorf("vectorized exchange must price below the boxed one: vec=%.0f boxed=%.0f", vec, boxed)
	}
	// The spill discount shows on the same operator when its build state
	// (1200 rows at 32 plane bytes) outgrows a 16 KiB budget share.
	budgeted := at(1, 16<<10)
	vecSpill, boxedSpill := budgeted.spillShape(dedup, in, []float64{in}, sp), budgeted.spillShape(dedup, in, []float64{in}, 1)
	if !(in < vecSpill && vecSpill < boxedSpill) {
		t.Errorf("vectorized spill must price above none and below the boxed one: own=%.0f vec=%.0f boxed=%.0f", in, vecSpill, boxedSpill)
	}
	// The paper's optimized plan partitions only sorts and temporal group
	// operators — shapes the engine exchanges tuple-wise — so the factors
	// must not move its price; a blanket discount here once steered the
	// server onto a plan whose layered execution lost the DBMS's order
	// guarantee. A stratum sort spills and exchanges tuple-wise too.
	srt := algebra.NewSort(relation.OrderSpec{relation.Key("EmpName")},
		algebra.NewTransferS(catalog.PaperProjection(c.MustNode("EMPLOYEE"))))
	for _, plan := range []algebra.Node{catalog.PaperOptimizedPlan(c), srt} {
		algebra.Walk(plan, func(n algebra.Node, _ algebra.Path) bool {
			for _, p := range []Params{par4, budgeted} {
				if ex, sp := p.batchDiscount(n.Op()); ex != 1 || sp != 1 {
					t.Errorf("%s must ignore the batch discount: exchange %v, spill %v", n.Op(), ex, sp)
				}
			}
			return true
		})
	}
	// The discount scales the charges; it must not erase them. A no-charge
	// bound: sequential unbudgeted cost divided by the worker count.
	vec, err := New(c, par4).Cost(dedup)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := New(c, at(1, 0)).Cost(dedup)
	if err != nil {
		t.Fatal(err)
	}
	if vec <= seq/4 {
		t.Errorf("vectorized 4-way cost %.0f must stay above the exchange floor (seq/4 = %.0f)", vec, seq/4)
	}
}

package cost_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/cost"
	"tqp/internal/datagen"
	"tqp/internal/enum"
	"tqp/internal/equiv"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/props"
	"tqp/internal/testutil"
)

// TestCostGoldens pins the model's exact prices: per calibration, one
// SHA-256 over (canonical plan, score) for every plan of the exhaustive
// closures of the paper's three plans on a 2,000-employee database, and for
// a fixed set of random plans over sized temporal catalogs, each scored in
// the stratum and shipped whole to the DBMS under a TS. A change that moves
// any estimate by one bit — a weight, an operand order, a shape — moves a
// digest; a refactor of the model must leave all six as they are.
func TestCostGoldens(t *testing.T) {
	type corpus struct {
		cat   *catalog.Catalog
		plans []algebra.Node
	}
	db := datagen.EmployeeDB(datagen.EmployeeSpec{Employees: 2000, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 42})
	paper := corpus{cat: db}
	for _, initial := range []algebra.Node{catalog.PaperInitialPlan(db), catalog.PaperIntermediatePlan(db), catalog.PaperOptimizedPlan(db)} {
		res, err := enum.Enumerate(initial, enum.Config{ResultType: equiv.ResultList})
		if err != nil {
			t.Fatal(err)
		}
		if res.Capped {
			t.Fatalf("closure of %s hit the plan cap", algebra.Canonical(initial))
		}
		paper.plans = append(paper.plans, res.Plans...)
	}
	corpora := []corpus{paper}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, bases := testutil.TemporalCatalogSized(seed, 1500, 1000)
		random := corpus{cat: c}
		for i := 0; i < 3; i++ {
			p := testutil.RandomPlan(rng, bases, 1+rng.Intn(3))
			random.plans = append(random.plans, p, algebra.NewTransferS(p))
		}
		corpora = append(corpora, random)
	}

	ref := cost.ForEngine(eval.Reference())
	plain := cost.ForEngine(exec.NewSpec(exec.Config{}))
	sharded := plain
	sharded.Shards = 2
	for _, tc := range []struct {
		name   string
		params cost.Params
		want   string
	}{
		{"reference", ref, "683e8b0810dd1556a00726f05a09d8369ade5bb64c14f1e4f8c502ad7bb406fe"},
		{"exec", plain, "ef81b0d6f9cf637d93299565ad922e06d900991f71b797da8edffea6401971ba"},
		{"exec-par4", cost.ForEngine(exec.NewSpec(exec.Config{Parallelism: 4})), "c11bf25da39366538c3f27cf766f3215d05e73604772ea5f553047433336d914"},
		{"exec-64K", cost.ForEngine(exec.NewSpec(exec.Config{MemoryBudget: 64 << 10})), "df2f1728e433f98c0d9e876ee0a26c04e8d12afd4268c9d0f88c36b01aa22a95"},
		{"exec-par4-16K", cost.ForEngine(exec.NewSpec(exec.Config{Parallelism: 4, MemoryBudget: 16 << 10})), "e602b55f87c13e7f8205d34e7b243bde64579b7f4816518f898cf0c3ff768ea6"},
		{"exec-2shards", sharded, "31b256ac43792593123bd879a1d66b369be869ff5a9b4176c5b713778c863754"},
	} {
		h, n := sha256.New(), 0
		for _, c := range corpora {
			in := algebra.NewInterner()
			score, states := cost.New(c.cat, tc.params).Scorer(), props.NewMemo(in)
			for _, p := range c.plans {
				s, err := score(in.Intern(p), states)
				if err != nil {
					t.Fatalf("%s: %s: %v", tc.name, algebra.Canonical(p), err)
				}
				fmt.Fprintf(h, "%s\t%v\n", algebra.Canonical(p), s)
				n++
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.want {
			t.Errorf("%s: digest of %d plan costs %s, want %s", tc.name, n, got, tc.want)
		}
	}
}

package core_test

// The concurrency audit the serving layer relies on: one Optimizer (and
// one cached Prepared) used from many goroutines at once must be safe and
// deterministic. CI runs this under -race; any shared mutable state on the
// parse → plan → enumerate → cost → execute path surfaces here. The
// invariant is strong on purpose: not merely "no race", but every
// concurrent execution returns the exact result list the sequential path
// returns.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/core"
	"tqp/internal/exec"
	"tqp/internal/relation"
	"tqp/internal/schema"
)

// auditStatements covers the pipeline breadth-first: conventional and
// sequenced selects, set operations, grouping, coalescing, a qualified
// join, and the paper's running example.
var auditStatements = []string{
	"SELECT EmpName FROM EMPLOYEE",
	"SELECT DISTINCT EmpName FROM EMPLOYEE ORDER BY EmpName",
	"SELECT EmpName, Dept FROM EMPLOYEE WHERE Dept = 'Sales' ORDER BY EmpName DESC",
	"VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE EXCEPT SELECT EmpName FROM PROJECT ORDER BY EmpName ASC",
	"SELECT EmpName FROM EMPLOYEE UNION SELECT EmpName FROM PROJECT ORDER BY EmpName",
	"VALIDTIME SELECT Dept, COUNT(*) AS headcount FROM EMPLOYEE GROUP BY Dept",
	"VALIDTIME SELECT DISTINCT 1.EmpName FROM EMPLOYEE, PROJECT WHERE 1.EmpName = 2.EmpName",
}

// TestOptimizerConcurrentUse shares one Optimizer across N goroutines,
// each independently preparing and executing the audit statements, and
// requires every result to be bit-identical to the sequential outcome.
func TestOptimizerConcurrentUse(t *testing.T) {
	cat := catalog.Paper()
	spec := exec.NewSpec(exec.Config{Parallelism: 2})
	opt := core.New(cat, core.WithEngine(spec), core.WithDBMSSeed(1))

	// Sequential oracle first.
	want := make(map[string]*relation.Relation, len(auditStatements))
	for _, sql := range auditStatements {
		prep, err := opt.Prepare(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		r, _, err := opt.ExecutePlan(prep.Plan, spec)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		want[sql] = r
	}

	const goroutines = 8
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, sql := range auditStatements {
				// Rotate the starting statement so goroutines collide on
				// different statements at any instant.
				sql = auditStatements[(i+g)%len(auditStatements)]
				prep, err := opt.Prepare(sql)
				if err != nil {
					errc <- fmt.Errorf("goroutine %d: prepare %q: %w", g, sql, err)
					return
				}
				got, _, err := opt.ExecutePlan(prep.Plan, spec)
				if err != nil {
					errc <- fmt.Errorf("goroutine %d: execute %q: %w", g, sql, err)
					return
				}
				if !got.EqualAsList(want[sql]) {
					errc <- fmt.Errorf("goroutine %d: %q: concurrent result differs from sequential", g, sql)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestSharedPreparedConcurrentExecution executes one cached Prepared — one
// shared plan tree — from many goroutines on distinct engine specs at
// once. This is exactly what a plan-cache hit does on a busy server: the
// tree must behave as immutable under execution.
func TestSharedPreparedConcurrentExecution(t *testing.T) {
	cat := catalog.Paper()
	opt := core.New(cat, core.WithDBMSSeed(1))
	const sql = "VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE EXCEPT SELECT EmpName FROM PROJECT ORDER BY EmpName ASC"
	prep, err := opt.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	specs := []struct {
		name string
		opts exec.Config
	}{
		{"seq", exec.Config{}},
		{"par2", exec.Config{Parallelism: 2}},
		{"mem64K", exec.Config{MemoryBudget: 64 << 10}},
	}
	want, _, err := opt.ExecutePlan(prep.Plan, exec.NewSpec(specs[0].opts))
	if err != nil {
		t.Fatal(err)
	}

	const perSpec = 4
	errc := make(chan error, len(specs)*perSpec)
	var wg sync.WaitGroup
	for _, sc := range specs {
		for k := 0; k < perSpec; k++ {
			wg.Add(1)
			go func(name string, o exec.Config) {
				defer wg.Done()
				got, _, err := opt.ExecutePlan(prep.Plan, exec.NewSpec(o))
				if err != nil {
					errc <- fmt.Errorf("%s: %w", name, err)
					return
				}
				if !got.EqualAsList(want) {
					errc <- fmt.Errorf("%s: shared-plan execution differs", name)
				}
			}(sc.name, sc.opts)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestOptimizerConcurrentRunAndExplain exercises the remaining public
// surface concurrently — Run (with its ≡SQL verification), OptimizeSQL and
// Explain — since the shell and the server lean on all three.
func TestOptimizerConcurrentRunAndExplain(t *testing.T) {
	cat := catalog.Paper()
	spec, err := core.EngineSpec("exec")
	if err != nil {
		t.Fatal(err)
	}
	opt := core.New(cat, core.WithEngine(spec))
	const goroutines = 6
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sql := auditStatements[g%len(auditStatements)]
			result, plans, _, err := opt.Run(sql)
			if err != nil {
				errc <- fmt.Errorf("run %q: %w", sql, err)
				return
			}
			if result.Len() == 0 {
				// Every audit statement yields rows on the paper catalog;
				// a zero-length result marks a wrong plan.
				errc <- fmt.Errorf("run %q: empty result", sql)
				return
			}
			if _, err := opt.Explain(plans.Best, plans.ResultType); err != nil {
				errc <- fmt.Errorf("explain %q: %w", sql, err)
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestSharedPlanConcurrentDerivation: a node derives its schema and
// canonical key on first use and hands out its own child slice. On a fresh
// plan nothing has derived anything for yet, 8 goroutines call Schema,
// Canonical and Children on every node while the plan executes; all must
// see one schema and one key per node, and the execution must return the
// list a sequential run of another copy of the plan returns.
func TestSharedPlanConcurrentDerivation(t *testing.T) {
	cat := catalog.Paper()
	spec := exec.NewSpec(exec.Config{Parallelism: 2})
	opt := core.New(cat, core.WithDBMSSeed(1))
	want, _, err := opt.ExecutePlan(catalog.PaperOptimizedPlan(cat), spec)
	if err != nil {
		t.Fatal(err)
	}
	plan := catalog.PaperOptimizedPlan(cat)

	type derived struct {
		schema *schema.Schema
		key    string
	}
	const goroutines = 8
	seen := make([]map[algebra.Node]derived, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seen[g] = make(map[algebra.Node]derived)
			var walk func(n algebra.Node)
			walk = func(n algebra.Node) {
				s, err := n.Schema()
				if err != nil {
					t.Error(err)
					return
				}
				seen[g][n] = derived{s, algebra.Canonical(n)}
				for _, c := range n.Children() {
					walk(c)
				}
			}
			walk(plan)
		}(g)
	}
	got, _, err := opt.ExecutePlan(plan, spec)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsList(want) {
		t.Error("execution beside concurrent derivation differs from a sequential run")
	}
	for g := 1; g < goroutines; g++ {
		if !reflect.DeepEqual(seen[g], seen[0]) {
			t.Errorf("goroutine %d derived a different schema or key than goroutine 0", g)
		}
	}
	if want := algebra.Canonical(catalog.PaperOptimizedPlan(cat)); seen[0][plan].key != want {
		t.Errorf("concurrently derived key %s, want %s", seen[0][plan].key, want)
	}
}

package exec_test

import (
	"math/rand"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/datagen"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/expr"
	"tqp/internal/physical"
	"tqp/internal/props"
	"tqp/internal/relation"
	"tqp/internal/testutil"
)

// TestDifferentialThreeWay is the merge family's correctness anchor: every
// random plan runs through the reference evaluator, the sequential engine
// with the merge/sort-based variants and sort elision, and the engine under
// a budget it never exhausts, whose decisions trade the merge join and the
// merge \ and ∪ for their hash variants on the exchange driver; all three
// must produce the identical tuple list and the identical Table 1 order
// annotation. The generator over-weights order-sensitive shapes, and the
// accumulated engine stats prove the merge paths actually compiled — a
// three-way pass over plans that never hit a merge operator would be
// vacuous.
func TestDifferentialThreeWay(t *testing.T) {
	plans := 0
	var total exec.Stats
	spillDir := t.TempDir()
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, bases := testutil.TemporalCatalog(seed)
		ref := eval.New(c)
		hash := exec.NewWith(c, exec.Config{MemoryBudget: 1 << 40, SpillDir: spillDir})
		merge := exec.New(c)

		for trial := 0; trial < 8; trial++ {
			plan := testutil.RandomPlan(rng, bases, 2+rng.Intn(2))
			want, errRef := ref.Eval(plan)
			gotHash, errHash := hash.Eval(plan)
			gotMerge, errMerge := merge.Eval(plan)
			if (errRef == nil) != (errHash == nil) || (errRef == nil) != (errMerge == nil) {
				t.Fatalf("seed %d: engines disagree on failure for %s: reference=%v hash=%v merge=%v",
					seed, algebra.Canonical(plan), errRef, errHash, errMerge)
			}
			if errRef != nil {
				continue
			}
			plans++
			if hash.Stats().MergeJoins != 0 {
				t.Fatalf("seed %d: %s: budgeted engine compiled a merge join: %+v", seed, algebra.Canonical(plan), hash.Stats())
			}
			if !gotHash.EqualAsList(want) {
				t.Fatalf("seed %d: %s: budgeted engine differs from reference\nhash (%d tuples):\n%s\nreference (%d tuples):\n%s",
					seed, algebra.Canonical(plan), gotHash.Len(), gotHash, want.Len(), want)
			}
			if !gotMerge.EqualAsList(want) {
				t.Fatalf("seed %d: %s: merge engine differs from reference\nmerge (%d tuples):\n%s\nreference (%d tuples):\n%s",
					seed, algebra.Canonical(plan), gotMerge.Len(), gotMerge, want.Len(), want)
			}
			if !gotHash.Order().Equal(want.Order()) || !gotMerge.Order().Equal(want.Order()) {
				t.Fatalf("seed %d: %s: order annotations differ: reference %s hash %s merge %s",
					seed, algebra.Canonical(plan), want.Order(), gotHash.Order(), gotMerge.Order())
			}
			// Stats are per-run (Eval resets them), so accumulate per plan.
			s := merge.Stats()
			total.SortsElided += s.SortsElided
			total.MergeSorts += s.MergeSorts
			total.MergeJoins += s.MergeJoins
			total.MergeOps += s.MergeOps
		}
	}
	if plans < 300 {
		t.Fatalf("three-way suite covered only %d plans, want ≥ 300", plans)
	}
	if total.SortsElided == 0 || total.MergeJoins == 0 || total.MergeOps == 0 || total.MergeSorts == 0 {
		t.Fatalf("merge paths did not all fire across the suite: %+v", total)
	}
}

// orderedCatalog is testutil.TemporalCatalog with each base physically
// sorted on, and declaring, an order drawn by the seed — so leaf orders, not
// only the plans' own sorts, feed the physical decisions.
func orderedCatalog(t *testing.T, seed int64) (*catalog.Catalog, []algebra.Node) {
	t.Helper()
	orders := []relation.OrderSpec{
		{relation.Key("Name"), relation.Key("Grp")},
		{relation.Key("Name")},
		{relation.Key("Grp")},
		{relation.Key("Name"), relation.Key("Grp"), relation.Key("T1"), relation.Key("T2")},
	}
	src, _ := testutil.TemporalCatalog(seed)
	c := catalog.New()
	for i, name := range []string{"A", "B"} {
		e, err := src.Entry(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := orders[(int(seed)+i)%len(orders)]
		r, err := e.Rel.Sorted(spec)
		if err != nil {
			t.Fatal(err)
		}
		info := e.Info
		info.Order = spec
		if err := c.Add(name, r, info); err != nil {
			t.Fatal(err)
		}
	}
	return c, []algebra.Node{c.MustNode("A"), c.MustNode("B")}
}

// TestVariantCountersMatchAnnotation pins one physical decision: on random
// plans over bases with declared orders, at every width and budget, the
// variants the engine counts having compiled are exactly what
// physical.Summarize tallies of physical.Annotate for the engine's shape —
// the view the cost model prices and EXPLAIN ANALYZE renders — and a plan
// with a node annotated Exchange fans out on the pool (Stats.ParallelOps).
// Each shape must compile every order-exploiting variant its decisions
// allow, or the agreement would be vacuous.
func TestVariantCountersMatchAnnotation(t *testing.T) {
	spillDir := t.TempDir()
	configs := []exec.Config{
		{},
		{Parallelism: 3},
		{MemoryBudget: 4 << 10, SpillDir: spillDir},
		{Parallelism: 3, MemoryBudget: 4 << 10, SpillDir: spillDir},
	}
	totals := make([]physical.Summary, len(configs))
	plans := 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, bases := orderedCatalog(t, seed)
		for trial := 0; trial < 6; trial++ {
			plan := testutil.RandomPlan(rng, bases, 2+rng.Intn(2))
			if _, err := eval.New(c).Eval(plan); err != nil {
				continue
			}
			plans++
			for i, cfg := range configs {
				spec := exec.NewSpec(cfg)
				dec, err := physical.Annotate(plan, spec.Shape())
				if err != nil {
					t.Fatalf("seed %d: %s: %v", seed, algebra.Canonical(plan), err)
				}
				want := physical.Summarize(dec)
				eng := exec.NewWith(c, cfg)
				if _, err := eng.Eval(plan); err != nil {
					t.Fatalf("seed %d: %s: %s: %v", seed, spec.Name, algebra.Canonical(plan), err)
				}
				st := eng.Stats()
				got := physical.Summary{SortsElided: st.SortsElided, Sorts: st.MergeSorts, MergeJoins: st.MergeJoins, MergeOps: st.MergeOps}
				if got != want {
					t.Fatalf("seed %d: %s: %s: engine compiled %+v, annotation says %+v",
						seed, spec.Name, algebra.Canonical(plan), got, want)
				}
				// A node annotated with an exchange divides its work across
				// the pool, budgeted or not, so the engine must have fanned
				// out at least one operator.
				exchanged := 0
				for _, v := range dec {
					if v.Exchange {
						exchanged++
					}
				}
				if exchanged > 0 && st.ParallelOps == 0 {
					t.Fatalf("seed %d: %s: %s: %d nodes annotated with an exchange, but no operator fanned out: %+v",
						seed, spec.Name, algebra.Canonical(plan), exchanged, st)
				}
				totals[i].SortsElided += got.SortsElided
				totals[i].Sorts += got.Sorts
				totals[i].MergeJoins += got.MergeJoins
				totals[i].MergeOps += got.MergeOps
			}
		}
	}
	if plans < 300 {
		t.Fatalf("covered only %d plans, want ≥ 300", plans)
	}
	for i, s := range totals {
		if s.SortsElided == 0 || s.Sorts == 0 || s.MergeOps == 0 {
			t.Errorf("%s: a variant never compiled: %+v", exec.NewSpec(configs[i]).Name, s)
		}
	}
	if totals[0].MergeJoins == 0 {
		t.Error("the sequential engine never compiled a merge join")
	}
}

// TestExternalMergeSortSpansRuns pins the sequential sort's stability on an
// input larger than one run (sortRunSize = 4096): it must come out exactly
// as the reference's stable sort, including the relative order of equal
// keys. (The run-merging sorts — parallel index runs, budgeted spilled
// runs — are pinned by TestParallelSortStable and
// TestBudgetedSortSpillStability.)
func TestExternalMergeSortSpansRuns(t *testing.T) {
	r := datagen.Temporal(datagen.TemporalSpec{
		Rows: 10000, Values: 40, DupFrac: 0.3, AdjFrac: 0.2, TimeRange: 300, MaxPeriod: 15, Seed: 42,
	})
	src := eval.MapSource{"R": r}
	base := algebra.NewRel("R", r.Schema(), algebra.BaseInfo{})
	// Few distinct Name values over 10k rows: every run contains every key,
	// so stability across runs is load-bearing, not incidental.
	plan := algebra.NewSort(relation.OrderSpec{relation.Key("Name")}, base)
	want, err := eval.New(src).Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	ex := exec.New(src)
	got, err := ex.Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Stats().MergeSorts != 1 {
		t.Fatalf("expected one external merge sort, stats %+v", ex.Stats())
	}
	if !got.EqualAsList(want) {
		t.Fatal("external merge sort differs from the reference stable sort")
	}
	if !got.Order().Equal(want.Order()) {
		t.Fatalf("order annotation %s ≠ reference %s", got.Order(), want.Order())
	}
}

// orderEngines are the engines whose result-order annotations the order
// tests pin: the reference evaluator and the exec engine sequential,
// parallel, under a spilling budget, and both at once.
func orderEngines(t *testing.T, src eval.Source) map[string]interface {
	Eval(algebra.Node) (*relation.Relation, error)
} {
	return map[string]interface {
		Eval(algebra.Node) (*relation.Relation, error)
	}{
		"reference":        eval.New(src),
		"exec":             exec.New(src),
		"exec-par3":        exec.NewWith(src, exec.Config{Parallelism: 3}),
		"exec-mem64K":      exec.NewWith(src, exec.Config{MemoryBudget: 64 << 10, SpillDir: t.TempDir()}),
		"exec-par3-mem64K": exec.NewWith(src, exec.Config{Parallelism: 3, MemoryBudget: 64 << 10, SpillDir: t.TempDir()}),
	}
}

// TestGroupOrderNamesItsSchema: conventional 𝒢 grouping on a time attribute
// yields a snapshot relation whose schema names the grouped attribute 1.T1,
// so the Table 1 order it annotates — Prefix(Order(r), GroupPairs) — must
// say 1.T1 as well, on every engine and in the static state alike.
func TestGroupOrderNamesItsSchema(t *testing.T) {
	c := catalog.Paper()
	plan := algebra.NewAggregate([]string{"T1"}, []expr.Aggregate{{Func: expr.CountAll, As: "C"}},
		algebra.NewSort(relation.OrderSpec{relation.Key("T1")}, c.MustNode("EMPLOYEE")))
	want := relation.OrderSpec{relation.Key("1.T1")}
	st, err := props.InferStates(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !st[plan].Order.Equal(want) {
		t.Fatalf("static order %s, want %s", st[plan].Order, want)
	}
	for name, eng := range orderEngines(t, c) {
		got, err := eng.Eval(plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Schema().Names()[0] != "1.T1" || !got.Order().Equal(want) {
			t.Errorf("%s: schema %s annotated with order %s, want %s", name, got.Schema(), got.Order(), want)
		}
	}
}

// TestOrderNamesOwnAttributes is the annotation invariant at every node: on
// random plans, every subtree's result order on every engine equals the
// static order props.InferStates derives for it, and names only attributes
// of the result's own schema. Each random plan with a time attribute is also
// run under a conventional 𝒢 grouping on T1 over an input sorted on it, the
// composition whose order once named an attribute its result did not have.
// The static order and the engines' labels come from one props.OrderOf, so
// the check pins the inputs each engine hands it: delivered leaf orders,
// elided sorts and every physical variant.
func TestOrderNamesOwnAttributes(t *testing.T) {
	plans, elided := 0, 0
	ordered := map[string]int{} // order keys annotated, per config
	byT1 := relation.OrderSpec{relation.Key("T1")}
	count := []expr.Aggregate{{Func: expr.CountAll, As: "C"}}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, bases := testutil.TemporalCatalog(seed)
		engines := orderEngines(t, c)
		for trial := 0; trial < 6; trial++ {
			p := testutil.RandomPlan(rng, bases, 2+rng.Intn(2))
			plans++
			batch := []algebra.Node{p}
			if s, err := p.Schema(); err == nil && s.Has("T1") {
				batch = append(batch, algebra.NewAggregate([]string{"T1"}, count, algebra.NewSort(byT1, p)))
			}
			for _, plan := range batch {
				st, err := props.InferStates(plan)
				if err != nil {
					t.Fatalf("seed %d: %s: %v", seed, algebra.Canonical(plan), err)
				}
				for name, eng := range engines {
					algebra.Walk(plan, func(n algebra.Node, _ algebra.Path) bool {
						got, err := eng.Eval(n)
						if err != nil {
							t.Fatalf("seed %d: %s: %s: %v", seed, name, algebra.Canonical(n), err)
						}
						if want := st[n].Order; !got.Order().Equal(want) {
							t.Fatalf("seed %d: %s: %s: annotated %s, static order %s",
								seed, name, algebra.Canonical(n), got.Order(), want)
						}
						for _, k := range got.Order() {
							if !got.Schema().Has(k.Attr) {
								t.Fatalf("seed %d: %s: %s: order %s names %q, not in schema %s",
									seed, name, algebra.Canonical(n), got.Order(), k.Attr, got.Schema())
							}
						}
						ordered[name] += len(got.Order())
						if name == "exec" {
							elided += eng.(*exec.Engine).Stats().SortsElided
						}
						return true
					})
				}
			}
		}
	}
	if plans < 300 {
		t.Fatalf("covered only %d random plans, want ≥ 300", plans)
	}
	for name, n := range ordered {
		if n == 0 {
			t.Errorf("%s: no result carried an order: the invariant was never exercised", name)
		}
	}
	if elided == 0 {
		t.Error("exec elided no sort: the elided-sort label went unchecked")
	}
}

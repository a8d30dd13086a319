package exec_test

import (
	"math/rand"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/datagen"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/expr"
	"tqp/internal/obs"
	"tqp/internal/physical"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/testutil"
	"tqp/internal/value"
)

// TestDifferentialVsReference is the exec engine's correctness anchor: it
// drives hundreds of random plans covering the conventional and temporal
// operators through both engines and asserts *exact list* equivalence —
// identical tuple sequences — plus identical Table 1 order annotations.
// List equality is deliberately stronger than the paper's per-operator
// guarantees (which pin order only where Table 1 records one, multiset
// equality elsewhere): the engines are built to agree on the full list so
// that every downstream operator — in particular coalescing, which is not
// confluent under reordering — sees identical input from either engine.
func TestDifferentialVsReference(t *testing.T) {
	plans := 0
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, bases := testutil.TemporalCatalog(seed)
		ref := eval.New(c)
		ex := exec.New(c)

		for trial := 0; trial < 8; trial++ {
			plan := testutil.RandomPlan(rng, bases, 2+rng.Intn(2))
			if err := algebra.Validate(plan); err != nil {
				t.Fatalf("seed %d: generator produced an invalid plan: %v", seed, err)
			}
			want, errRef := ref.Eval(plan)
			got, errExec := ex.Eval(plan)
			if (errRef == nil) != (errExec == nil) {
				t.Fatalf("seed %d: engines disagree on failure for %s: reference=%v exec=%v",
					seed, algebra.Canonical(plan), errRef, errExec)
			}
			if errRef != nil {
				continue
			}
			plans++
			if !got.Schema().Equal(want.Schema()) {
				t.Fatalf("seed %d: %s: exec schema %s ≠ reference %s",
					seed, algebra.Canonical(plan), got.Schema(), want.Schema())
			}
			if !got.EqualAsList(want) {
				t.Fatalf("seed %d: %s: exec result differs from reference\nexec (%d tuples):\n%s\nreference (%d tuples):\n%s",
					seed, algebra.Canonical(plan), got.Len(), got, want.Len(), want)
			}
			if !got.Order().Equal(want.Order()) {
				t.Fatalf("seed %d: %s: exec order %s ≠ reference order %s",
					seed, algebra.Canonical(plan), got.Order(), want.Order())
			}
			if !got.SortedBy(got.Order()) {
				t.Fatalf("seed %d: %s: exec claims order %s but the list is not sorted",
					seed, algebra.Canonical(plan), got.Order())
			}
		}
	}
	if plans < 500 {
		t.Fatalf("differential suite covered only %d plans, want ≥ 500", plans)
	}
}

// TestDifferentialDuplicateSortKey is the regression for the
// groupsContiguous duplicate-key bug: rdupᵀ over a sort that repeats a key
// (valid per OrderSpec.Validate) used to take the contiguous fast path on
// groups that are not contiguous, splitting value groups and skipping the
// overlap subtraction.
func TestDifferentialDuplicateSortKey(t *testing.T) {
	s := schema.MustNew(
		schema.Attr("Name", value.KindString),
		schema.Attr("Grp", value.KindInt),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime))
	r := relation.MustFromRows(s, [][]any{
		{"a", 1, 0, 10},
		{"a", 2, 0, 10},
		{"a", 1, 5, 15},
	})
	src := eval.MapSource{"R": r}
	base := algebra.NewRel("R", s, algebra.BaseInfo{})
	dupSort := relation.OrderSpec{relation.Key("Name"), relation.Key("Name")}
	for _, plan := range []algebra.Node{
		algebra.NewTRdup(algebra.NewSort(dupSort, base)),
		algebra.NewCoal(algebra.NewSort(dupSort, base)),
	} {
		want, err := eval.New(src).Eval(plan)
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec.New(src).Eval(plan)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsList(want) {
			t.Fatalf("%s: exec differs\nexec:\n%s\nreference:\n%s",
				algebra.Canonical(plan), got, want)
		}
	}
}

// TestDifferentialHugeIntKeys is the regression for the numeric hash/equality
// mismatch: ints beyond 2^53 used to compare through float64 (collapsing
// 2^62 and 2^62+1 into one value) while hashing exactly, so the reference's
// predicate join and exec's hash join disagreed. Comparison is now exact, and
// both engines must agree that the keys differ.
func TestDifferentialHugeIntKeys(t *testing.T) {
	s := schema.MustNew(schema.Attr("K", value.KindInt))
	l := relation.MustFromRows(s, [][]any{{int64(1) << 62}})
	r := relation.MustFromRows(s, [][]any{{int64(1)<<62 + 1}})
	src := eval.MapSource{"L": l, "R": r}
	pred := expr.Compare(expr.Eq, expr.Column("1.K"), expr.Column("2.K"))
	plan := algebra.NewJoin(pred,
		algebra.NewRel("L", s, algebra.BaseInfo{}),
		algebra.NewRel("R", s, algebra.BaseInfo{}))
	want, err := eval.New(src).Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.New(src).Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 0 || got.Len() != 0 {
		t.Fatalf("2^62 and 2^62+1 must not join: reference %d rows, exec %d rows", want.Len(), got.Len())
	}
	if !got.EqualAsList(want) {
		t.Fatal("engines disagree on huge int keys")
	}
}

// TestUnobservedEvalCompilesNoStage is the exact count behind "pay for what
// you use": on the acceptance pipeline coalᵀ(rdupᵀ(L ⋈ᵀ R)) an Eval nobody
// observes compiles no counting stage, an observed one exactly one stage per
// plan node, and both produce the same list — sequential, parallel and under
// a spilling budget.
func TestUnobservedEvalCompilesNoStage(t *testing.T) {
	l := datagen.Temporal(datagen.TemporalSpec{Rows: 1000, Values: 250, TimeRange: 400, MaxPeriod: 20, Seed: 11})
	r := datagen.Temporal(datagen.TemporalSpec{Rows: 256, Values: 250, TimeRange: 400, MaxPeriod: 20, Seed: 12})
	src := eval.MapSource{"L": l, "R": r}
	plan := algebra.NewCoal(algebra.NewTRdup(algebra.NewTJoin(
		expr.Compare(expr.Eq, expr.Column("1.Grp"), expr.Column("2.Grp")),
		algebra.NewRel("L", l.Schema(), algebra.BaseInfo{}),
		algebra.NewRel("R", r.Schema(), algebra.BaseInfo{}))))
	nodes := 0
	algebra.Walk(plan, func(algebra.Node, algebra.Path) bool { nodes++; return true })

	for _, cfg := range []exec.Config{{}, {Parallelism: 3}, {MemoryBudget: 16 << 10}} {
		e := exec.NewWith(src, cfg)
		want, err := e.Eval(plan)
		if err != nil {
			t.Fatal(err)
		}
		if n := exec.StageCount(e); n != 0 {
			t.Errorf("%+v: unobserved Eval compiled %d stages, want 0", cfg, n)
		}
		if st := e.Stats(); cfg.Parallelism > 1 && st.ParallelOps == 0 || cfg.MemoryBudget > 0 && st.SpilledOps == 0 {
			t.Errorf("%+v: the configured route never ran: %+v", cfg, st)
		}
		samples := 0
		e.ObserveNodes(false, func(algebra.Node, physical.Variant, obs.RunSample) { samples++ })
		got, err := e.Eval(plan)
		if err != nil {
			t.Fatal(err)
		}
		if n := exec.StageCount(e); n != nodes || samples != nodes {
			t.Errorf("%+v: observed Eval compiled %d stages and reported %d samples, want %d each", cfg, n, samples, nodes)
		}
		if !got.EqualAsList(want) {
			t.Errorf("%+v: observed and unobserved results differ", cfg)
		}
	}
}

// TestDifferentialPerNode re-runs the differential check on every subtree of
// a smaller plan sample, so a disagreement is pinned to the narrowest
// operator rather than a whole plan.
func TestDifferentialPerNode(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, bases := testutil.TemporalCatalog(seed)
		ref := eval.New(c)
		ex := exec.New(c)
		for trial := 0; trial < 4; trial++ {
			plan := testutil.RandomPlan(rng, bases, 2+rng.Intn(2))
			var check func(n algebra.Node)
			check = func(n algebra.Node) {
				for _, ch := range n.Children() {
					check(ch)
				}
				want, err := ref.Eval(n)
				if err != nil {
					t.Fatalf("seed %d: reference eval %s: %v", seed, algebra.Canonical(n), err)
				}
				got, err := ex.Eval(n)
				if err != nil {
					t.Fatalf("seed %d: exec eval %s: %v", seed, algebra.Canonical(n), err)
				}
				if !got.EqualAsList(want) {
					t.Fatalf("seed %d: node %s: exec differs\nexec:\n%s\nreference:\n%s",
						seed, algebra.Canonical(n), got, want)
				}
				if !got.Order().Equal(want.Order()) {
					t.Fatalf("seed %d: node %s: exec order %s ≠ reference order %s",
						seed, algebra.Canonical(n), got.Order(), want.Order())
				}
			}
			check(plan)
		}
	}
}

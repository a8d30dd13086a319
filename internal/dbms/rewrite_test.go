package dbms

import (
	"math/rand"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/eval"
	"tqp/internal/expr"
	"tqp/internal/rules"
	"tqp/internal/testutil"
	"tqp/internal/value"
)

// TestRewriterReachesFixpoint: the DBMS's one bottom-up pass leaves no
// place where one of its rules still matches, and the plan it runs is
// list-equal, under the reference evaluator, to the plan shipped. Random
// subplans, some of them a selection over a product of two, so that P3
// and P4 have something to push; every rule must fire somewhere, and the
// pass must change at least 150 subplans.
func TestRewriterReachesFixpoint(t *testing.T) {
	fired := make(map[string]int)
	counted := make([]rules.Rule, len(dbmsRewrites))
	for k, r := range dbmsRewrites {
		apply := r.Apply
		r.Apply = func(n algebra.Node, st rules.Lookup) *rules.Rewrite {
			rw := apply(n, st)
			if rw != nil {
				fired[r.Name]++
			}
			return rw
		}
		counted[k] = r
	}
	e := &Engine{rewrites: counted}
	subplans, changed := 0, 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, bases := testutil.TemporalCatalog(seed)
		ref := eval.New(c)
		for trial := 0; trial < 8; trial++ {
			sub := testutil.RandomPlan(rng, bases, 1+rng.Intn(2))
			if trial%2 == 1 {
				// σ over ×: the predicate reads the left side, the right
				// side or both, so P3, P4 or neither applies.
				side := []string{"1.Grp", "2.Grp"}[rng.Intn(2)]
				p := expr.Pred(expr.Compare(expr.Lt, expr.Column(side), expr.Literal(value.Int(int64(rng.Intn(4))))))
				if rng.Intn(3) == 0 {
					p = expr.Conj(p, expr.Compare(expr.Ne, expr.Column("1.Name"), expr.Column("2.Name")))
				}
				sub = algebra.NewSelect(p, algebra.NewProduct(
					testutil.TemporalCore(rng, bases, 1), testutil.TemporalCore(rng, bases, 1)))
			}
			want, err := ref.Eval(sub)
			if err != nil {
				continue
			}
			budget := maxRewrites
			got := e.rewrite(sub, &budget)
			algebra.Walk(got, func(n algebra.Node, path algebra.Path) bool {
				for _, r := range dbmsRewrites {
					if r.Apply(n, nil) != nil {
						t.Fatalf("seed %d: %s rewrites to %s, where %s still matches at %s",
							seed, algebra.Canonical(sub), algebra.Canonical(got), r.Name, path)
					}
				}
				return true
			})
			res, err := ref.Eval(got)
			if err != nil {
				t.Fatalf("seed %d: %s rewrites to %s, which fails: %v", seed, algebra.Canonical(sub), algebra.Canonical(got), err)
			}
			if !res.EqualAsList(want) {
				t.Fatalf("seed %d: %s rewrites to %s, which delivers\n%s\nnot\n%s",
					seed, algebra.Canonical(sub), algebra.Canonical(got), res, want)
			}
			subplans++
			if algebra.Canonical(got) != algebra.Canonical(sub) {
				changed++
			}
		}
	}
	t.Logf("%d subplans, %d rewritten; rule applications %v", subplans, changed, fired)
	if changed < 150 {
		t.Errorf("the pass changed %d of %d subplans, want ≥ 150", changed, subplans)
	}
	for _, r := range dbmsRewrites {
		if fired[r.Name] == 0 {
			t.Errorf("rule %s never fired", r.Name)
		}
	}
}

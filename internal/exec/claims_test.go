package exec_test

import (
	"math/rand"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/obs"
	"tqp/internal/physical"
	"tqp/internal/relation"
	"tqp/internal/testutil"
)

// claimLegs are the engines the claim-reading decisions run on: the
// sequential engine, a pool of three and a budget small enough to spill.
func claimLegs(spillDir string) map[string]exec.Config {
	return map[string]exec.Config{
		"exec":       {},
		"exec-par3":  {Parallelism: 3},
		"exec-mem4K": {MemoryBudget: 4 << 10, SpillDir: spillDir},
	}
}

// pairVariants runs plan on eng and returns the variants its \ᵀ and ∪ᵀ
// nodes compiled, in build order.
func pairVariants(t *testing.T, eng *exec.Engine, plan algebra.Node) (*relation.Relation, []physical.Variant, error) {
	t.Helper()
	var vs []physical.Variant
	eng.ObserveNodes(false, func(n algebra.Node, v physical.Variant, _ obs.RunSample) {
		if op := n.Op(); op == algebra.OpTDiff || op == algebra.OpTUnion {
			vs = append(vs, v)
		}
	})
	r, err := eng.Eval(plan)
	return r, vs, err
}

// TestCoalescedLeftKeepsTheSweep guards the premise of \ᵀ's union
// subtraction: coalescing merges adjacent periods only, so coalᵀ(L ⊔ L)
// is coalesced yet holds every period of L twice, overlapping its twin.
// Such a left must compile the multiplicity sweep — hash-part — and its
// result must be the reference's list on every engine, hashed and, under a
// sort on the value columns, cut into runs.
func TestCoalescedLeftKeepsTheSweep(t *testing.T) {
	c, bases := testutil.TemporalCatalogSized(5, 300, 200)
	a, b := bases[0], bases[1]
	left := algebra.NewCoal(algebra.NewUnionAll(a, a))
	lr, err := eval.New(c).Eval(left)
	if err != nil {
		t.Fatal(err)
	}
	if !lr.IsCoalesced() || !lr.HasSnapshotDuplicates() {
		t.Fatalf("vacuous: coalᵀ(A ⊔ A) coalesced=%v, snapshot duplicates=%v; want both", lr.IsCoalesced(), lr.HasSnapshotDuplicates())
	}
	byNameGrp := relation.OrderSpec{relation.Key("Name"), relation.Key("Grp")}
	for _, plan := range []algebra.Node{
		algebra.NewTDiff(left, b),
		algebra.NewTDiff(algebra.NewSort(byNameGrp, left), b),
	} {
		want, err := eval.New(c).Eval(plan)
		if err != nil {
			t.Fatal(err)
		}
		for name, cfg := range claimLegs(t.TempDir()) {
			eng := exec.NewWith(c, cfg)
			got, vs, err := pairVariants(t, eng, plan)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, algebra.Canonical(plan), err)
			}
			if cfg.MemoryBudget > 0 && eng.Stats().SpilledOps == 0 {
				t.Fatalf("vacuous: %s: %s spilled nothing", name, algebra.Canonical(plan))
			}
			if len(vs) != 1 || vs[0].Algo != physical.AlgoHashPart {
				t.Fatalf("%s: %s: \\ᵀ compiled %+v, want hash-part", name, algebra.Canonical(plan), vs)
			}
			if !got.EqualAsList(want) {
				t.Fatalf("%s: %s: %d tuples, reference %d\n%s\nreference:\n%s", name, algebra.Canonical(plan), got.Len(), want.Len(), got, want)
			}
		}
	}
}

// claimsCatalog is testutil.TemporalCatalogSized plus S, rdupᵀ of A sorted
// on ⟨Name, Grp⟩, declaring the snapshot distinctness and the order it has
// (catalog.Add checks both against the instance).
func claimsCatalog(t *testing.T, seed int64) (*catalog.Catalog, []algebra.Node) {
	t.Helper()
	c, bases := testutil.TemporalCatalogSized(seed, 60, 40)
	r, err := eval.New(c).Eval(algebra.NewTRdup(bases[0]))
	if err != nil {
		t.Fatal(err)
	}
	byNameGrp := relation.OrderSpec{relation.Key("Name"), relation.Key("Grp")}
	if r, err = r.Sorted(byNameGrp); err != nil {
		t.Fatal(err)
	}
	info := algebra.BaseInfo{Distinct: !r.HasDuplicates(), SnapshotDistinct: true, Order: byNameGrp}
	if err := c.Add("S", r, info); err != nil {
		t.Fatal(err)
	}
	return c, append(bases, c.MustNode("S"))
}

// TestDifferentialTrustedClaims runs random temporal plans whose physical
// decisions read their inputs' claims — testutil.RandomPlan over bases that
// declare their snapshot distinctness from the instance, one of them (S)
// snapshot-distinct and sorted — and \ᵀ over rdupᵀ, over coalᵀ∘rdupᵀ and
// over S, and ∪ᵀ and \ᵀ over lefts sorted on the value columns, through
// the sequential, parallel and budgeted engines: each must give the
// reference's list and order. A vacuity guard counts the \ᵀ nodes the
// engines report compiling as the union subtraction, and the \ᵀ and ∪ᵀ
// nodes they report contiguous.
func TestDifferentialTrustedClaims(t *testing.T) {
	byNameGrp := relation.OrderSpec{relation.Key("Name"), relation.Key("Grp")}
	legs := claimLegs(t.TempDir())
	plans, subtracted, contiguous, spilled := 0, 0, 0, 0
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, bases := claimsCatalog(t, seed)
		ref := eval.New(c)
		sub := func() algebra.Node { return testutil.TemporalCore(rng, bases, 1+rng.Intn(2)) }
		cases := []algebra.Node{
			testutil.RandomPlan(rng, bases, 2+rng.Intn(2)),
			testutil.RandomPlan(rng, bases, 2+rng.Intn(2)),
			testutil.RandomPlan(rng, bases, 2+rng.Intn(2)),
			algebra.NewTDiff(algebra.NewTRdup(sub()), sub()),
			algebra.NewTDiff(algebra.NewCoal(algebra.NewTRdup(sub())), sub()),
			algebra.NewTDiff(bases[2], sub()),
			algebra.NewTDiff(algebra.NewSort(byNameGrp, algebra.NewCoal(algebra.NewTRdup(sub()))), sub()),
			algebra.NewTDiff(algebra.NewSort(byNameGrp, sub()), sub()),
			algebra.NewTUnion(algebra.NewSort(byNameGrp, sub()), sub()),
			algebra.NewTUnion(bases[2], sub()),
		}
		for _, plan := range cases {
			want, errRef := ref.Eval(plan)
			for name, cfg := range legs {
				eng := exec.NewWith(c, cfg)
				got, vs, err := pairVariants(t, eng, plan)
				if (errRef == nil) != (err == nil) {
					t.Fatalf("seed %d %s: engines disagree on failure for %s: reference=%v engine=%v",
						seed, name, algebra.Canonical(plan), errRef, err)
				}
				if errRef != nil {
					continue
				}
				if !got.EqualAsList(want) {
					t.Fatalf("seed %d %s: %s: %d tuples, reference %d\n%s\nreference:\n%s",
						seed, name, algebra.Canonical(plan), got.Len(), want.Len(), got, want)
				}
				if !got.Order().Equal(want.Order()) {
					t.Fatalf("seed %d %s: %s: order %s, reference %s", seed, name, algebra.Canonical(plan), got.Order(), want.Order())
				}
				for _, v := range vs {
					subtracted += boolCount(v.Algo == physical.AlgoMinusUnion)
					contiguous += boolCount(v.Contiguous)
				}
				spilled += int(eng.Stats().SpilledOps)
			}
			if errRef == nil {
				plans++
			}
		}
	}
	t.Logf("%d plans; over three engines, %d \\ᵀ nodes subtracted the right's union and %d \\ᵀ/∪ᵀ nodes read a contiguous left; %d operators spilled",
		plans, subtracted, contiguous, spilled)
	if plans < 250 || subtracted < 150 || contiguous < 150 || spilled == 0 {
		t.Fatalf("vacuous: %d plans, %d union subtractions, %d contiguous pairs, %d spilled operators; want ≥ 250, 150, 150 and some",
			plans, subtracted, contiguous, spilled)
	}
}

func boolCount(b bool) int {
	if b {
		return 1
	}
	return 0
}

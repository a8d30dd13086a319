package enum_test

import (
	"math"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/cost"
	"tqp/internal/enum"
	"tqp/internal/equiv"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/relation"
	"tqp/internal/testutil"
)

// cheapest returns the first plan of least cost, each costed afresh.
func cheapest(t *testing.T, model *cost.Model, plans []algebra.Node) (algebra.Node, float64) {
	t.Helper()
	var best algebra.Node
	bestCost := math.Inf(1)
	for _, p := range plans {
		c, err := model.Cost(p)
		if err != nil {
			t.Fatal(err)
		}
		if c < bestCost {
			best, bestCost = p, c
		}
	}
	return best, bestCost
}

// TestBeamMatchesExhaustiveBest: on the paper query the beam search must
// reach the same best cost as the exhaustive Figure 5 closure while
// visiting fewer plans.
func TestBeamMatchesExhaustiveBest(t *testing.T) {
	c := catalog.Paper()
	initial := catalog.PaperInitialPlan(c)
	model := cost.New(c, cost.DefaultParams())

	full, err := enum.Enumerate(initial, enum.Config{ResultType: equiv.ResultList})
	if err != nil {
		t.Fatal(err)
	}
	_, fullBest := cheapest(t, model, full.Plans)

	beam, err := enum.Beam(initial, enum.BeamConfig{
		Config: enum.Config{ResultType: equiv.ResultList},
		Score:  model.Scorer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, beamBest := cheapest(t, model, beam.Plans)
	if beamBest > fullBest*1.001 {
		t.Errorf("beam best %.1f worse than exhaustive best %.1f", beamBest, fullBest)
	}
	if len(beam.Plans) >= len(full.Plans) {
		t.Errorf("beam visited %d plans, exhaustive %d — no saving", len(beam.Plans), len(full.Plans))
	}
	t.Logf("beam visited %d plans vs %d exhaustive; best %.1f vs %.1f",
		len(beam.Plans), len(full.Plans), beamBest, fullBest)
}

// TestBeamPlansAreCorrect: beam-search plans obey the same guard, so every
// visited plan is still ≡SQL to the initial one (spot check: evaluating the
// best one equals the reference).
func TestBeamPlansAreCorrect(t *testing.T) {
	c := catalog.Paper()
	initial := catalog.PaperInitialPlan(c)
	model := cost.New(c, cost.DefaultParams())
	beam, err := enum.Beam(initial, enum.BeamConfig{
		Config: enum.Config{ResultType: equiv.ResultList},
		Score:  model.Scorer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range beam.Plans {
		if err := algebra.Validate(p); err != nil {
			t.Fatalf("beam produced an invalid plan: %v", err)
		}
	}
	if beam.GuardRejections["S2"] == 0 {
		t.Error("the guard must still gate the beam search")
	}
}

// TestBeamFindsSortFreePlan: scored by the order-aware model over bases
// sorted and declared on ⟨Name, Grp⟩, the beam must discover from
// sort_Name(coalᵀ(rdupᵀ(L))) a best plan with no sort node (order
// propagation proves the sort redundant and S1 removes it), strictly
// cheaper than the initial plan, whose list under the exec engine equals
// the reference's list of the initial plan.
func TestBeamFindsSortFreePlan(t *testing.T) {
	c := testutil.SortedCatalog(1200)
	initial := algebra.NewSort(relation.OrderSpec{relation.Key("Name")},
		algebra.NewCoal(algebra.NewTRdup(c.MustNode("L"))))
	model := cost.New(c, cost.ParamsFor(true))
	res, err := enum.Beam(initial, enum.BeamConfig{
		Config: enum.Config{ResultType: equiv.ResultList},
		Score:  model.Scorer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	best, bestCost := cheapest(t, model, res.Plans)
	algebra.Walk(best, func(n algebra.Node, _ algebra.Path) bool {
		if n.Op() == algebra.OpSort {
			t.Errorf("best plan %s keeps a sort node", algebra.Canonical(best))
		}
		return true
	})
	initialCost, err := model.Cost(initial)
	if err != nil {
		t.Fatal(err)
	}
	if !(bestCost < initialCost) {
		t.Errorf("best plan cost %.0f is not strictly below the initial plan's %.0f", bestCost, initialCost)
	}
	want, err := eval.New(c).Eval(initial)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.New(c).Eval(best)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsList(want) {
		t.Errorf("best plan %s under exec differs from the initial plan's reference list", algebra.Canonical(best))
	}
}

func TestBeamNeedsScore(t *testing.T) {
	c := catalog.Paper()
	if _, err := enum.Beam(catalog.PaperInitialPlan(c), enum.BeamConfig{
		Config: enum.Config{ResultType: equiv.ResultList},
	}); err == nil {
		t.Error("beam without a score function must fail")
	}
}

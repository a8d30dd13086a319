package enum_test

import (
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/enum"
	"tqp/internal/equiv"
	"tqp/internal/rules"
)

// TestPlanCap: a tiny cap stops the fixpoint and flags the result.
func TestPlanCap(t *testing.T) {
	c := catalog.Paper()
	res, err := enum.Enumerate(catalog.PaperInitialPlan(c), enum.Config{
		ResultType: equiv.ResultList,
		MaxPlans:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Capped || len(res.Plans) != 5 {
		t.Errorf("capped=%v plans=%d, want capped at 5", res.Capped, len(res.Plans))
	}
}

// TestExpandingRulesExcludedByDefault: the enumerator must terminate on the
// full catalog because expanding rules (r →S rdup(r), r →SM coalT(r)) are
// filtered out — with them admitted and a cap, plans grow.
func TestExpandingRulesExcludedByDefault(t *testing.T) {
	c := catalog.Paper()
	initial := catalog.PaperInitialPlan(c)
	base, err := enum.Enumerate(initial, enum.Config{ResultType: equiv.ResultSet})
	if err != nil {
		t.Fatal(err)
	}
	if base.Capped {
		t.Fatal("default enumeration must terminate without the cap")
	}
	withExpanding, err := enum.Enumerate(initial, enum.Config{
		ResultType:       equiv.ResultSet,
		IncludeExpanding: true,
		MaxPlans:         len(base.Plans) + 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(withExpanding.Plans) <= len(base.Plans) {
		t.Errorf("expanding rules should reach more plans: %d vs %d",
			len(withExpanding.Plans), len(base.Plans))
	}
}

// TestProvenanceChains: every non-initial plan has a derivation that walks
// back to the initial plan.
func TestProvenanceChains(t *testing.T) {
	c := catalog.Paper()
	initial := catalog.PaperInitialPlan(c)
	res, err := enum.Enumerate(initial, enum.Config{ResultType: equiv.ResultList})
	if err != nil {
		t.Fatal(err)
	}
	initialKey := algebra.Canonical(initial)
	for i, p := range res.Plans {
		steps := res.Derivation(p)
		if i == 0 {
			if len(steps) != 0 {
				t.Error("the initial plan has no derivation")
			}
			continue
		}
		if len(steps) == 0 {
			t.Fatalf("plan %d has no provenance", i)
		}
		if steps[0].Parent != initialKey {
			t.Fatalf("plan %d's derivation does not start at the initial plan", i)
		}
	}
}

// TestRestrictedRuleSets: with only the sorting rules, the reachable space
// is tiny and every plan still validates. From Figure 6(a), whose sort runs
// in the stratum, the sort moves. From Figure 2(a) it may not: there the
// sort is the root of the DBMS region, the only place the DBMS keeps an
// order, so no sort rule may move it (props.DBMSOrderKept) and the initial
// plan is the whole space.
func TestRestrictedRuleSets(t *testing.T) {
	c := catalog.Paper()
	cfg := enum.Config{ResultType: equiv.ResultList, Rules: rules.SortRules()}
	kept, err := enum.Enumerate(catalog.PaperInitialPlan(c), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept.Plans) != 1 {
		t.Errorf("Figure 2(a): sort rules moved the DBMS region's root sort: %d plans, first new %s",
			len(kept.Plans), algebra.Canonical(kept.Plans[min(1, len(kept.Plans)-1)]))
	}
	res, err := enum.Enumerate(catalog.PaperIntermediatePlan(c), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plans) < 2 {
		t.Errorf("sort rules alone should still move the sort: %d plans", len(res.Plans))
	}
	for _, p := range res.Plans {
		if err := algebra.Validate(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInvalidInitialPlanRejected: enumeration refuses to start from a plan
// that does not validate.
func TestInvalidInitialPlanRejected(t *testing.T) {
	c := catalog.Paper()
	bad := algebra.NewTRdup(algebra.NewProjectCols(c.MustNode("EMPLOYEE"), "EmpName"))
	if _, err := enum.Enumerate(bad, enum.Config{ResultType: equiv.ResultList}); err == nil {
		t.Error("invalid initial plan must be rejected")
	}
}

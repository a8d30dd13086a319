package catalog_test

import (
	"strings"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

func TestPaperDatabase(t *testing.T) {
	c := catalog.Paper()
	emp, err := c.Resolve("EMPLOYEE")
	if err != nil {
		t.Fatal(err)
	}
	if emp.Len() != 5 {
		t.Errorf("EMPLOYEE has %d tuples, want 5", emp.Len())
	}
	prj, err := c.Resolve("PROJECT")
	if err != nil {
		t.Fatal(err)
	}
	if prj.Len() != 8 {
		t.Errorf("PROJECT has %d tuples, want 8", prj.Len())
	}
	// EMPLOYEE itself is snapshot-distinct — Anna's two [2,6) spells differ
	// in Dept. The paper's temporal duplicates only appear after projecting
	// Dept away (Figure 3), which TestFigure3R1 in package eval pins.
	if emp.HasSnapshotDuplicates() {
		t.Error("EMPLOYEE tuples are pairwise distinct in every snapshot")
	}
	if !emp.Temporal() || emp.IsCoalesced() {
		t.Error("EMPLOYEE is temporal and uncoalesced (Anna's Sales spells are adjacent)")
	}
	if prj.HasSnapshotDuplicates() {
		t.Error("PROJECT is snapshot-distinct")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "EMPLOYEE" || names[1] != "PROJECT" {
		t.Errorf("Names = %v", names)
	}
}

func TestAddValidatesDeclarations(t *testing.T) {
	s := catalog.EmployeeSchema()
	withDups := relation.MustFromRows(s, [][]any{
		{"x", "d", 1, 3},
		{"x", "d", 1, 3},
	})
	c := catalog.New()
	if err := c.Add("R", withDups, algebra.BaseInfo{Distinct: true}); err == nil {
		t.Error("declaring Distinct over duplicated data must fail")
	}
	if err := c.Add("R", withDups, algebra.BaseInfo{SnapshotDistinct: true}); err == nil {
		t.Error("declaring SnapshotDistinct over overlapping data must fail")
	}
	uncoalesced := relation.MustFromRows(s, [][]any{
		{"x", "d", 1, 3},
		{"x", "d", 3, 5},
	})
	if err := c.Add("R", uncoalesced, algebra.BaseInfo{Coalesced: true}); err == nil {
		t.Error("declaring Coalesced over adjacent value-equivalent tuples must fail")
	}
	unsorted := relation.MustFromRows(s, [][]any{
		{"z", "d", 1, 3},
		{"a", "d", 4, 6},
	})
	if err := c.Add("R", unsorted, algebra.BaseInfo{
		Order: relation.OrderSpec{relation.Key("EmpName")},
	}); err == nil {
		t.Error("declaring an order the data does not satisfy must fail")
	}
	if err := c.Add("R", unsorted, algebra.BaseInfo{Distinct: true}); err != nil {
		t.Errorf("truthful declaration rejected: %v", err)
	}
	if err := c.Add("R", unsorted, algebra.BaseInfo{}); err == nil {
		t.Error("duplicate relation names must fail")
	}
}

func TestNodeCarriesInfo(t *testing.T) {
	c := catalog.Paper()
	n, err := c.Node("PROJECT")
	if err != nil {
		t.Fatal(err)
	}
	if !n.Info.SnapshotDistinct || !n.Info.Distinct {
		t.Errorf("PROJECT info = %+v", n.Info)
	}
	if _, err := c.Node("NOPE"); err == nil {
		t.Error("unknown relation must fail")
	}
	if _, err := c.Entry("NOPE"); err == nil {
		t.Error("unknown entry must fail")
	}
}

func TestStats(t *testing.T) {
	c := catalog.Paper()
	e, err := c.Entry("EMPLOYEE")
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats.Card != 5 {
		t.Errorf("Card = %d", e.Stats.Card)
	}
	if e.Stats.AvgPeriod <= 0 {
		t.Errorf("AvgPeriod = %f", e.Stats.AvgPeriod)
	}
}

func TestPaperPlansValidate(t *testing.T) {
	c := catalog.Paper()
	for name, plan := range map[string]algebra.Node{
		"initial":      catalog.PaperInitialPlan(c),
		"intermediate": catalog.PaperIntermediatePlan(c),
		"optimized":    catalog.PaperOptimizedPlan(c),
	} {
		if err := algebra.Validate(plan); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	canon := algebra.Canonical(catalog.PaperInitialPlan(c))
	for _, part := range []string{"TS(", "sort{EmpName ASC}", "coalT", "rdupT", "diffT"} {
		if !strings.Contains(canon, part) {
			t.Errorf("initial plan missing %s: %s", part, canon)
		}
	}
}

func TestResolveCopiesAreIsolated(t *testing.T) {
	c := catalog.New()
	s := schema.MustNew(schema.Attr("A", value.KindInt))
	r := relation.MustFromRows(s, [][]any{{1}})
	if err := c.Add("R", r, algebra.BaseInfo{}); err != nil {
		t.Fatal(err)
	}
	// Mutating the caller's relation after Add must not affect the catalog.
	r.Append(relation.NewTuple(value.Int(2)))
	got, _ := c.Resolve("R")
	if got.Len() != 1 {
		t.Error("catalog must hold its own copy of the tuple list")
	}
}

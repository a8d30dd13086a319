package cost_test

import (
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/cost"
	"tqp/internal/eval"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// TestTravelScanPricing pins the store-aware leaf pricing: a disk-backed
// scan costs segments × SegmentRead, fence pruning makes a narrow travel
// scan strictly cheaper than a full scan, and in-memory scans stay free —
// the historical model is unchanged where there is no disk.
func TestTravelScanPricing(t *testing.T) {
	c, err := catalog.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sch := schema.MustNew(
		schema.Attr("Name", value.KindString),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime),
	)
	if err := c.AddDisk("R", relation.MustFromRows(sch, [][]any{{"a", 0, 5}}), algebra.BaseInfo{}); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendRows("R", [][]any{{"b", 100, 105}}); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendRows("R", [][]any{{"c", 200, 205}}); err != nil {
		t.Fatal(err)
	}

	p := cost.ForEngine(eval.Reference())
	m := cost.New(c, p)
	full, err := m.Cost(c.MustNode("R"))
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * cost.SegmentRead; full != want {
		t.Fatalf("full disk scan costs %.1f, want %d segments × %.1f = %.1f", full, 3, cost.SegmentRead, want)
	}

	narrowNode, err := c.TravelNode("R", &catalog.Travel{Kind: catalog.TravelAsOf, T: 104})
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := m.Cost(narrowNode)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 * cost.SegmentRead; narrow != want {
		t.Fatalf("pruned travel scan costs %.1f, want %.1f", narrow, want)
	}
	if narrow >= full {
		t.Fatalf("indexed travel scan (%.1f) not cheaper than full scan (%.1f)", narrow, full)
	}

	// Travel scans also shrink the row estimate feeding parent operators.
	fullNode := c.MustNode("R")
	es, err := m.Plan(narrowNode)
	if err != nil {
		t.Fatal(err)
	}
	esFull, err := m.Plan(fullNode)
	if err != nil {
		t.Fatal(err)
	}
	if es["ε"].Rows >= esFull["ε"].Rows {
		t.Fatalf("travel row estimate %.2f not below full %.2f", es["ε"].Rows, esFull["ε"].Rows)
	}

	// In-memory catalogs keep the historical free leaf.
	mem := catalog.Paper()
	mm := cost.New(mem, p)
	free, err := mm.Cost(mem.MustNode("EMPLOYEE"))
	if err != nil {
		t.Fatal(err)
	}
	if free != 0 {
		t.Fatalf("in-memory scan costs %.1f, want 0", free)
	}
}

package catalog_test

import (
	"fmt"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/datagen"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// freshStats is the Stats a new in-memory catalog computes for r's tuples
// in one pass — the reference an appended entry's Stats must equal exactly.
func freshStats(t *testing.T, r *relation.Relation) catalog.Stats {
	t.Helper()
	c := catalog.New()
	if err := c.Add("R", relation.FromTuplesTrusted(r.Schema(), r.Tuples()), algebra.BaseInfo{}); err != nil {
		t.Fatal(err)
	}
	e, err := c.Entry("R")
	if err != nil {
		t.Fatal(err)
	}
	return e.Stats
}

// checkStats fails unless the entry's Stats equal a fresh pass over its
// tuples.
func checkStats(t *testing.T, c *catalog.Catalog, name, when string) catalog.Stats {
	t.Helper()
	e, err := c.Entry(name)
	if err != nil {
		t.Fatal(err)
	}
	if want := freshStats(t, e.Rel); e.Stats != want {
		t.Fatalf("%s: Stats %+v, a fresh pass over the same %d tuples gives %+v", when, e.Stats, e.Rel.Len(), want)
	}
	return e.Stats
}

// TestAppendStatsEdgeCases extends statistics batch by batch through the
// corners of the merge step — on an in-memory and a disk-backed catalog —
// and checks each step against a fresh pass and against literal values. An
// append the declared-info check refuses must move neither the statistics
// nor the fingerprint.
func TestAppendStatsEdgeCases(t *testing.T) {
	temporal := travelSchema()
	snap := schema.MustNew(schema.Attr("X", value.KindInt))
	cases := []struct {
		name    string
		sch     *schema.Schema
		batches [][][]any // the first creates the entry
		want    catalog.Stats
	}{
		{
			name: "empty periods first",
			sch:  temporal,
			batches: [][][]any{
				{{"a", 5, 5}, {"b", 9, 3}},
				{{"c", 0, 4}},
				{{"d", 2, 2}, {"e", 6, 7}},
			},
			want: catalog.Stats{Card: 5, AvgPeriod: 1, MinT: 0, MaxT: 7},
		},
		{
			name: "negative chronons",
			sch:  temporal,
			batches: [][][]any{
				{{"a", -10, -4}},
				{{"b", -20, -15}, {"c", -3, -1}},
			},
			want: catalog.Stats{Card: 3, AvgPeriod: 13.0 / 3, MinT: -20, MaxT: -1},
		},
		{
			// 29/7 scaled back by 7 is not 29 in floating point: a running
			// mean would give 3.7500000000000004 here.
			name: "mean from the integer sum",
			sch:  temporal,
			batches: [][][]any{
				{{"a", 0, 4}, {"b", 0, 4}, {"c", 0, 4}, {"d", 0, 4}, {"e", 0, 4}, {"f", 0, 4}, {"g", 0, 5}},
				{{"h", 10, 11}},
			},
			want: catalog.Stats{Card: 8, AvgPeriod: 3.75, MinT: 0, MaxT: 11},
		},
		{
			name:    "non-temporal",
			sch:     snap,
			batches: [][][]any{{{1}, {2}}, {{3}}},
			want:    catalog.Stats{Card: 3},
		},
		{
			name:    "created empty",
			sch:     temporal,
			batches: [][][]any{{}, {{"a", 3, 8}}, {{"b", 1, 2}}},
			want:    catalog.Stats{Card: 2, AvgPeriod: 3, MinT: 1, MaxT: 8},
		},
	}
	for _, tc := range cases {
		for _, disk := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/disk=%v", tc.name, disk), func(t *testing.T) {
				first := relation.MustFromRows(tc.sch, tc.batches[0])
				c := catalog.New()
				var err error
				if disk {
					if c, err = catalog.OpenDir(t.TempDir()); err != nil {
						t.Fatal(err)
					}
					err = c.AddDisk("R", first, algebra.BaseInfo{})
				} else {
					err = c.Add("R", first, algebra.BaseInfo{})
				}
				if err != nil {
					t.Fatal(err)
				}
				checkStats(t, c, "R", "created")
				for i, rows := range tc.batches[1:] {
					if err := c.AppendRows("R", rows); err != nil {
						t.Fatal(err)
					}
					checkStats(t, c, "R", fmt.Sprintf("append %d", i+1))
				}
				if got := checkStats(t, c, "R", "last"); got.Card != tc.want.Card ||
					got.AvgPeriod != tc.want.AvgPeriod || got.MinT != tc.want.MinT || got.MaxT != tc.want.MaxT {
					t.Fatalf("Stats %+v, want %+v", got, tc.want)
				}
			})
		}
	}
	t.Run("rejected append", func(t *testing.T) {
		for _, disk := range []bool{false, true} {
			c := catalog.Paper()
			if disk {
				var err error
				if c, err = catalog.OpenDir(t.TempDir()); err != nil {
					t.Fatal(err)
				}
				if err := c.ImportFrom(catalog.Paper()); err != nil {
					t.Fatal(err)
				}
			}
			before := checkStats(t, c, "EMPLOYEE", "before")
			fp := c.Fingerprint()
			// EMPLOYEE is declared Distinct; the batch repeats an existing row
			// after a new one, so the rejection is not decided by the first row.
			if err := c.AppendRows("EMPLOYEE", [][]any{{"Eve", "Sales", -4, 40}, {"John", "Sales", 1, 8}}); err == nil {
				t.Fatalf("disk=%v: an append violating Distinct was accepted", disk)
			}
			if after := checkStats(t, c, "EMPLOYEE", "after"); after != before {
				t.Fatalf("disk=%v: rejected append moved Stats %+v → %+v", disk, before, after)
			}
			if c.Fingerprint() != fp {
				t.Fatalf("disk=%v: rejected append changed the fingerprint", disk)
			}
		}
	})
}

// TestAppendCostIndependentOfSize guards the O(rows appended) append: the
// allocations of appending 512 rows must not depend on how many rows the
// entry already holds. A whole-relation pass per append (a key string per
// row, say) shows up here as a difference of ~10⁵.
func TestAppendCostIndependentOfSize(t *testing.T) {
	rows := func(n, seed int) [][]any {
		out := make([][]any, n)
		for i := range out {
			start := (seed + i) % 997
			out[i] = []any{fmt.Sprintf("v%d", i%61), i % 7, start, start + 1 + i%5}
		}
		return out
	}
	batch := rows(512, 1)
	allocs := func(size int) float64 {
		c := catalog.New()
		r := relation.MustFromRows(datagen.TemporalSchema(), rows(size, 0))
		if err := c.Add("R", r, algebra.BaseInfo{}); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if err := c.AppendRows("R", batch); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(4<<10), allocs(64<<10)
	t.Logf("appending 512 rows: %.0f allocations to a 4k-row entry, %.0f to a 64k-row entry", small, large)
	if d := large - small; d > 16 || d < -16 {
		t.Fatalf("appending 512 rows costs %.0f allocations at 4k rows but %.0f at 64k", small, large)
	}
}

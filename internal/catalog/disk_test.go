package catalog_test

import (
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

func travelSchema() *schema.Schema {
	return schema.MustNew(
		schema.Attr("Name", value.KindString),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime),
	)
}

// diskCatalogWithEras returns a disk-backed catalog whose relation R holds
// three appends with disjoint period eras — [0,10), [100,110), [200,210) —
// so each segment's fence isolates one era.
func diskCatalogWithEras(t *testing.T) *catalog.Catalog {
	t.Helper()
	c, err := catalog.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sch := travelSchema()
	first := relation.MustFromRows(sch, [][]any{{"a", 0, 5}, {"b", 4, 10}})
	if err := c.AddDisk("R", first, algebra.BaseInfo{}); err != nil {
		t.Fatal(err)
	}
	for _, rows := range [][][]any{
		{{"c", 100, 105}, {"d", 104, 110}},
		{{"e", 200, 205}, {"f", 204, 210}},
	} {
		if err := c.AppendRows("R", rows); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestDiskCatalogReopen pins durability at the catalog layer: a reopened
// directory serves the same relations, tuples, flags and fingerprint.
func TestDiskCatalogReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := catalog.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ImportFrom(catalog.Paper()); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendRows("PROJECT", [][]any{{"Anna", "P9", 10, 11}}); err != nil {
		t.Fatal(err)
	}
	fp := c.Fingerprint()

	c2, err := catalog.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(c2.Names()), 2; got != want {
		t.Fatalf("reopened catalog has %d relations, want %d", got, want)
	}
	for _, name := range c2.Names() {
		was, err := c.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		now, err := c2.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		if !now.EqualAsList(was) {
			t.Fatalf("%s differs after reopen", name)
		}
	}
	e, err := c2.Entry("EMPLOYEE")
	if err != nil || !e.Info.Distinct {
		t.Fatalf("EMPLOYEE info lost across reopen: %+v, %v", e, err)
	}
	if c2.Fingerprint() != fp {
		t.Fatal("fingerprint differs across a reopen of unchanged data")
	}
}

// TestAppendVerifiesInfo rejects appends that would falsify the declared
// base-info flags, leaving both memory and disk untouched.
func TestAppendVerifiesInfo(t *testing.T) {
	c, err := catalog.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ImportFrom(catalog.Paper()); err != nil {
		t.Fatal(err)
	}
	fp := c.Fingerprint()
	before, _ := c.Resolve("EMPLOYEE")
	n := before.Len()
	// EMPLOYEE is declared Distinct; appending an existing row duplicates it.
	if err := c.AppendRows("EMPLOYEE", [][]any{{"John", "Sales", 1, 8}}); err == nil {
		t.Fatal("append violating Distinct must fail")
	}
	after, _ := c.Resolve("EMPLOYEE")
	if after.Len() != n {
		t.Fatalf("failed append changed the relation: %d → %d rows", n, after.Len())
	}
	if c.Fingerprint() != fp {
		t.Fatal("failed append changed the fingerprint")
	}
}

// TestFingerprintTracksAppends: a persisted append must invalidate cached
// plans, so the fingerprint changes with every commit.
func TestFingerprintTracksAppends(t *testing.T) {
	c := diskCatalogWithEras(t)
	fp := c.Fingerprint()
	if err := c.AppendRows("R", [][]any{{"g", 300, 301}}); err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() == fp {
		t.Fatal("fingerprint unchanged after a persisted append")
	}
}

// TestResolveScanPrunesSegments is the period index end to end, with the
// vacuity guard the acceptance criteria require: a travel scan over one era
// must report skipped segments, a full scan must not skip any.
func TestResolveScanPrunesSegments(t *testing.T) {
	c := diskCatalogWithEras(t)

	// Full scan: every segment read, none skipped.
	r, scanned, skipped, err := c.ResolveScan("R")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 6 || scanned != 3 || skipped != 0 {
		t.Fatalf("full scan: %d rows, %d scanned, %d skipped; want 6/3/0", r.Len(), scanned, skipped)
	}

	// AS OF 104 lives in the middle era only.
	name := catalog.ScanName("R", &catalog.Travel{Kind: catalog.TravelAsOf, T: 104})
	r, scanned, skipped, err = c.ResolveScan(name)
	if err != nil {
		t.Fatal(err)
	}
	if scanned != 1 || skipped != 2 {
		t.Fatalf("AS OF 104: %d scanned, %d skipped; want 1/2 — pruning is vacuous", scanned, skipped)
	}
	if r.Len() != 2 {
		t.Fatalf("AS OF 104 returned %d rows, want 2", r.Len())
	}
	for i := 0; i < r.Len(); i++ {
		if !r.PeriodOf(i).Overlaps(period.New(104, 105)) {
			t.Fatalf("row %d does not overlap the query instant", i)
		}
	}

	// A period spanning two eras scans two segments and skips one.
	name = catalog.ScanName("R", &catalog.Travel{Kind: catalog.TravelPeriod, Start: 5, End: 105})
	r, scanned, skipped, err = c.ResolveScan(name)
	if err != nil {
		t.Fatal(err)
	}
	if scanned != 2 || skipped != 1 {
		t.Fatalf("[5,105): %d scanned, %d skipped; want 2/1", scanned, skipped)
	}

	// A period before all eras skips everything.
	name = catalog.ScanName("R", &catalog.Travel{Kind: catalog.TravelPeriod, Start: -100, End: -50})
	r, scanned, skipped, err = c.ResolveScan(name)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 || scanned != 0 || skipped != 3 {
		t.Fatalf("disjoint period: %d rows, %d scanned, %d skipped; want 0/0/3", r.Len(), scanned, skipped)
	}
}

// TestTravelMatchesNaiveFilter: segment pruning must be pure optimization —
// the travel result equals the unindexed overlap filter, in base order.
func TestTravelMatchesNaiveFilter(t *testing.T) {
	c := diskCatalogWithEras(t)
	base, err := c.Resolve("R")
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []catalog.Travel{
		{Kind: catalog.TravelAsOf, T: 4},
		{Kind: catalog.TravelAsOf, T: 9},
		{Kind: catalog.TravelAsOf, T: 50},
		{Kind: catalog.TravelPeriod, Start: 0, End: 300},
		{Kind: catalog.TravelPeriod, Start: 104, End: 205},
	} {
		got, _, _, err := c.ResolveScan(catalog.ScanName("R", &tr))
		if err != nil {
			t.Fatal(err)
		}
		var rows []relation.Tuple
		qp := tr.QueryPeriod()
		for i := 0; i < base.Len(); i++ {
			if base.PeriodOf(i).Overlaps(qp) {
				rows = append(rows, base.At(i))
			}
		}
		want := relation.FromTuplesTrusted(base.Schema(), rows)
		if !got.EqualAsList(want) {
			t.Fatalf("travel %+v: indexed scan differs from naive filter (%d vs %d rows)", tr, got.Len(), want.Len())
		}
	}
}

// TestTravelOverInMemoryCatalog: the same travel scans work without a store
// — full filter, zero segment counters.
func TestTravelOverInMemoryCatalog(t *testing.T) {
	c := catalog.Paper()
	name := catalog.ScanName("EMPLOYEE", &catalog.Travel{Kind: catalog.TravelAsOf, T: 7})
	r, scanned, skipped, err := c.ResolveScan(name)
	if err != nil {
		t.Fatal(err)
	}
	if scanned != 0 || skipped != 0 {
		t.Fatalf("in-memory travel scan reported segment counters %d/%d", scanned, skipped)
	}
	// At month 7, John is in Sales+Advertising and Anna in Sales: 3 spells.
	if r.Len() != 3 {
		t.Fatalf("EMPLOYEE AS OF 7: %d rows, want 3", r.Len())
	}
}

// TestTravelNodeValidation pins the error surface: unknown relations,
// non-temporal relations and empty periods are rejected at plan-build time.
func TestTravelNodeValidation(t *testing.T) {
	c := catalog.New()
	snap := relation.MustFromRows(schema.MustNew(schema.Attr("X", value.KindInt)), [][]any{{1}})
	if err := c.Add("SNAP", snap, algebra.BaseInfo{}); err != nil {
		t.Fatal(err)
	}
	asOf := &catalog.Travel{Kind: catalog.TravelAsOf, T: 1}
	if _, err := c.TravelNode("missing", asOf); err == nil {
		t.Fatal("travel over unknown relation must fail")
	}
	if _, err := c.TravelNode("SNAP", asOf); err == nil {
		t.Fatal("travel over a snapshot relation must fail")
	}
	temporal := relation.MustFromRows(travelSchema(), [][]any{{"a", 1, 2}})
	if err := c.Add("TEMP", temporal, algebra.BaseInfo{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TravelNode("TEMP", &catalog.Travel{Kind: catalog.TravelPeriod, Start: 5, End: 5}); err == nil {
		t.Fatal("empty query period must fail")
	}
	n, err := c.TravelNode("TEMP", asOf)
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "TEMP@asof:1" {
		t.Fatalf("travel node name %q", n.Name)
	}
	if _, err := c.Resolve(n.Name); err != nil {
		t.Fatalf("travel node name does not resolve: %v", err)
	}
}

// TestExactNameWinsOverSuffixParse: a relation whose literal name looks like
// a travel scan resolves to itself, never to a reinterpretation.
func TestExactNameWinsOverSuffixParse(t *testing.T) {
	c := catalog.New()
	weird := relation.MustFromRows(travelSchema(), [][]any{{"x", 1, 2}})
	if err := c.Add("R@asof:7", weird, algebra.BaseInfo{}); err != nil {
		t.Fatal(err)
	}
	r, scanned, skipped, err := c.ResolveScan("R@asof:7")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || scanned != 0 || skipped != 0 {
		t.Fatalf("literal name resolved wrong: %d rows, counters %d/%d", r.Len(), scanned, skipped)
	}
}

// TestScanName round-trips through ParseScanName.
func TestScanName(t *testing.T) {
	cases := []*catalog.Travel{
		nil,
		{Kind: catalog.TravelAsOf, T: 42},
		{Kind: catalog.TravelAsOf, T: -3},
		{Kind: catalog.TravelPeriod, Start: 5, End: 100},
		{Kind: catalog.TravelPeriod, Start: -10, End: -5},
	}
	for _, tr := range cases {
		name := catalog.ScanName("BASE", tr)
		base, got := catalog.ParseScanName(name)
		if base != "BASE" {
			t.Fatalf("%q parsed base %q", name, base)
		}
		switch {
		case tr == nil:
			if got != nil {
				t.Fatalf("%q parsed travel %+v, want none", name, got)
			}
		case got == nil || *got != *tr:
			t.Fatalf("%q parsed travel %+v, want %+v", name, got, tr)
		}
	}
}

// TestScanEstimate pins the cost inputs: full scans touch every segment,
// pruned scans fewer, in-memory scans none.
func TestScanEstimate(t *testing.T) {
	c := diskCatalogWithEras(t)
	full, ok := c.ScanEstimate("R")
	if !ok || full.Segments != 3 || full.Rows != 6 {
		t.Fatalf("full estimate %+v ok=%v, want 3 segments / 6 rows", full, ok)
	}
	narrow, ok := c.ScanEstimate(catalog.ScanName("R", &catalog.Travel{Kind: catalog.TravelAsOf, T: 104}))
	if !ok || narrow.Segments != 1 {
		t.Fatalf("narrow estimate %+v ok=%v, want 1 segment", narrow, ok)
	}
	if narrow.Rows >= full.Rows {
		t.Fatalf("narrow travel rows %.1f not below full %.1f", narrow.Rows, full.Rows)
	}
	mem, ok := catalog.Paper().ScanEstimate("EMPLOYEE")
	if !ok || mem.Segments != 0 {
		t.Fatalf("in-memory estimate %+v ok=%v, want 0 segments", mem, ok)
	}
	if _, ok := catalog.Paper().ScanEstimate("missing"); ok {
		t.Fatal("unknown relation must not estimate")
	}
}

// TestCatalogCompact keeps the tuple list and collapses the segment list.
func TestCatalogCompact(t *testing.T) {
	c := diskCatalogWithEras(t)
	before, _ := c.Resolve("R")
	want := before.Clone()
	if err := c.Compact("R"); err != nil {
		t.Fatal(err)
	}
	after, _, _, err := c.ResolveScan("R")
	if err != nil {
		t.Fatal(err)
	}
	if !after.EqualAsList(want) {
		t.Fatal("compact changed the tuple list")
	}
	if _, scanned, _, _ := c.ResolveScan("R"); scanned != 1 {
		t.Fatalf("compacted relation scans %d segments, want 1", scanned)
	}
}

package store_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/column"
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/store"
	"tqp/internal/value"
)

func tempSchema() *schema.Schema {
	return schema.MustNew(
		schema.Attr("Name", value.KindString),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime),
	)
}

func rowsOf(t *testing.T, sch *schema.Schema, rows [][]any) []relation.Tuple {
	t.Helper()
	r, err := relation.FromRows(sch, rows)
	if err != nil {
		t.Fatal(err)
	}
	return r.Tuples()
}

// batchOf is a tuple list's batch, for Append.
func batchOf(sch *schema.Schema, rows []relation.Tuple) *column.Batch {
	return relation.FromTuplesTrusted(sch, rows).Columns()
}

// openStore opens a store and fails the test on error.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRoundTrip pins the append/reopen cycle: tuples come back bit-identical
// across segments and process restarts, the version bumps per commit, and
// the per-segment fences bound exactly the periods each append wrote.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sch := tempSchema()
	s := openStore(t, dir)
	if got := s.Version(); got != 0 {
		t.Fatalf("fresh store at version %d, want 0", got)
	}
	if err := s.Create("R", sch, algebra.BaseInfo{Distinct: true}); err != nil {
		t.Fatal(err)
	}
	first := rowsOf(t, sch, [][]any{{"a", 1, 5}, {"b", 2, 6}})
	second := rowsOf(t, sch, [][]any{{"c", 100, 200}})
	if err := s.Append("R", batchOf(sch, first)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("R", batchOf(sch, second)); err != nil {
		t.Fatal(err)
	}
	if got := s.Version(); got != 3 {
		t.Fatalf("version %d after create+2 appends, want 3", got)
	}

	segs, err := s.Segments("R")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("%d segments, want 2", len(segs))
	}
	if !segs[0].Fenced || segs[0].MinT != 1 || segs[0].MaxT != 6 {
		t.Fatalf("segment 0 fence [%d,%d) fenced=%v, want [1,6) fenced", segs[0].MinT, segs[0].MaxT, segs[0].Fenced)
	}
	if segs[1].MinT != 100 || segs[1].MaxT != 200 {
		t.Fatalf("segment 1 fence [%d,%d), want [100,200)", segs[1].MinT, segs[1].MaxT)
	}

	// Reopen — a different process — and read everything back.
	s2 := openStore(t, dir)
	r, err := s2.Load("R")
	if err != nil {
		t.Fatal(err)
	}
	want := relation.FromTuplesTrusted(sch, append(append([]relation.Tuple(nil), first...), second...))
	if !r.EqualAsList(want) {
		t.Fatalf("reloaded relation differs:\n%v\nwant\n%v", r, want)
	}
	info, err := s2.Info("R")
	if err != nil || !info.Distinct {
		t.Fatalf("info = %+v, %v; want Distinct", info, err)
	}
}

// TestLargeAppendManyBlocks crosses the block boundary (BlockRows tuples per
// block) so multi-block segment decode is exercised.
func TestLargeAppendManyBlocks(t *testing.T) {
	dir := t.TempDir()
	sch := tempSchema()
	s := openStore(t, dir)
	if err := s.Create("R", sch, algebra.BaseInfo{}); err != nil {
		t.Fatal(err)
	}
	var raw [][]any
	for i := 0; i < 1000; i++ {
		raw = append(raw, []any{fmt.Sprintf("n%d", i), i, i + 3})
	}
	rows := rowsOf(t, sch, raw)
	if err := s.Append("R", batchOf(sch, rows)); err != nil {
		t.Fatal(err)
	}
	r, err := openStore(t, dir).Load("R")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1000 {
		t.Fatalf("reloaded %d rows, want 1000", r.Len())
	}
	if !r.EqualAsList(relation.FromTuplesTrusted(sch, rows)) {
		t.Fatal("reloaded relation differs after multi-block append")
	}
}

// TestCrashAtFaultPoints kills the writer at each named point of the commit
// sequence and asserts the reopen rolls back to the previous committed
// state: same version, same tuples, no orphan segment files left behind.
func TestCrashAtFaultPoints(t *testing.T) {
	for _, point := range []string{"segment", "manifest"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			sch := tempSchema()
			s := openStore(t, dir)
			if err := s.Create("R", sch, algebra.BaseInfo{}); err != nil {
				t.Fatal(err)
			}
			committed := rowsOf(t, sch, [][]any{{"keep", 1, 2}})
			if err := s.Append("R", batchOf(sch, committed)); err != nil {
				t.Fatal(err)
			}
			wantVersion := s.Version()

			killed := errors.New("killed")
			s.SetFault(func(p string) error {
				if p == point {
					return killed
				}
				return nil
			})
			if err := s.Append("R", batchOf(sch, rowsOf(t, sch, [][]any{{"lost", 10, 20}}))); !errors.Is(err, killed) {
				t.Fatalf("append survived the %s kill: %v", point, err)
			}

			s2 := openStore(t, dir)
			if got := s2.Version(); got != wantVersion {
				t.Fatalf("version %d after crash recovery, want %d", got, wantVersion)
			}
			r, err := s2.Load("R")
			if err != nil {
				t.Fatal(err)
			}
			if !r.EqualAsList(relation.FromTuplesTrusted(sch, committed)) {
				t.Fatalf("rolled-back relation differs: %v", r)
			}
			segs, _ := s2.Segments("R")
			assertNoOrphans(t, dir, segs)
		})
	}
}

// TestTornManifestAtFuzzedOffsets simulates a writer killed while writing
// MANIFEST.tmp: for every truncation point of the in-flight manifest bytes,
// the reopen must silently discard the torn tmp and serve the previous
// committed manifest — torn uncommitted state is rollback, not corruption.
func TestTornManifestAtFuzzedOffsets(t *testing.T) {
	dir := t.TempDir()
	sch := tempSchema()
	s := openStore(t, dir)
	if err := s.Create("R", sch, algebra.BaseInfo{}); err != nil {
		t.Fatal(err)
	}
	committed := rowsOf(t, sch, [][]any{{"keep", 1, 2}})
	if err := s.Append("R", batchOf(sch, committed)); err != nil {
		t.Fatal(err)
	}
	wantVersion := s.Version()
	manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	// Offsets sweep the header, the payload, and the empty file.
	offsets := []int{0, 1, 7, len(manifest) / 3, len(manifest) / 2, len(manifest) - 1}
	for _, off := range offsets {
		if err := os.WriteFile(filepath.Join(dir, "MANIFEST.tmp"), manifest[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := store.Open(dir)
		if err != nil {
			t.Fatalf("offset %d: reopen after torn tmp: %v", off, err)
		}
		if got := s2.Version(); got != wantVersion {
			t.Fatalf("offset %d: version %d, want %d", off, got, wantVersion)
		}
		if _, err := os.Stat(filepath.Join(dir, "MANIFEST.tmp")); !os.IsNotExist(err) {
			t.Fatalf("offset %d: stale MANIFEST.tmp survived recovery", off)
		}
		r, err := s2.Load("R")
		if err != nil || !r.EqualAsList(relation.FromTuplesTrusted(sch, committed)) {
			t.Fatalf("offset %d: rolled-back relation differs (%v)", off, err)
		}
	}
}

// TestOrphanSegmentsSwept simulates a writer killed after writing a segment
// but before its manifest referenced it: the reopen removes the orphan.
func TestOrphanSegmentsSwept(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Create("R", tempSchema(), algebra.BaseInfo{}); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "seg-009999.seg")
	if err := os.WriteFile(orphan, []byte("half-written segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	openStore(t, dir)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan segment survived recovery")
	}
}

// TestCorruptionIsTypedNeverPanics flips or truncates committed bytes and
// asserts every failure surfaces as ErrCorrupt — a typed error, no panic,
// and never a silently wrong answer.
func TestCorruptionIsTypedNeverPanics(t *testing.T) {
	setup := func(t *testing.T) (string, []relation.Tuple) {
		dir := t.TempDir()
		sch := tempSchema()
		s := openStore(t, dir)
		if err := s.Create("R", sch, algebra.BaseInfo{}); err != nil {
			t.Fatal(err)
		}
		rows := rowsOf(t, sch, [][]any{{"a", 1, 5}, {"b", 2, 6}, {"c", 3, 7}})
		if err := s.Append("R", batchOf(sch, rows)); err != nil {
			t.Fatal(err)
		}
		return dir, rows
	}
	segPath := func(t *testing.T, dir string) string {
		matches, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
		if err != nil || len(matches) == 0 {
			t.Fatalf("no segment files in %s (%v)", dir, err)
		}
		return matches[0]
	}

	t.Run("manifest-bit-flips", func(t *testing.T) {
		dir, _ := setup(t)
		path := filepath.Join(dir, "MANIFEST")
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range []int{0, 5, 20, len(orig) / 2, len(orig) - 1} {
			mut := append([]byte(nil), orig...)
			mut[off] ^= 0x40
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := store.Open(dir); !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("flip at %d: Open = %v, want ErrCorrupt", off, err)
			}
		}
	})

	t.Run("manifest-truncated", func(t *testing.T) {
		dir, _ := setup(t)
		path := filepath.Join(dir, "MANIFEST")
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, keep := range []int{0, 1, len(orig) / 2, len(orig) - 1} {
			if err := os.WriteFile(path, orig[:keep], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := store.Open(dir); !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("truncate to %d: Open = %v, want ErrCorrupt", keep, err)
			}
		}
	})

	t.Run("segment-bit-flips", func(t *testing.T) {
		dir, _ := setup(t)
		path := segPath(t, dir)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range []int{0, 3, len(orig) / 2, len(orig) - 1} {
			mut := append([]byte(nil), orig...)
			mut[off] ^= 0x01
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := store.Open(dir) // size unchanged: Open's stat check passes
			if err != nil {
				t.Fatalf("flip at %d: Open = %v (size is unchanged)", off, err)
			}
			if _, err := s.Load("R"); !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("flip at %d: Load = %v, want ErrCorrupt", off, err)
			}
		}
	})

	t.Run("segment-truncated", func(t *testing.T) {
		dir, _ := setup(t)
		path := segPath(t, dir)
		if err := os.Truncate(path, 10); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Open(dir); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("Open over truncated committed segment = %v, want ErrCorrupt", err)
		}
	})

	t.Run("segment-missing", func(t *testing.T) {
		dir, _ := setup(t)
		if err := os.Remove(segPath(t, dir)); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Open(dir); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("Open with missing committed segment = %v, want ErrCorrupt", err)
		}
	})
}

// TestCompact rewrites three segments as one with the same tuple list and a
// re-tightened fence, and removes the replaced files.
func TestCompact(t *testing.T) {
	dir := t.TempDir()
	sch := tempSchema()
	s := openStore(t, dir)
	if err := s.Create("R", sch, algebra.BaseInfo{}); err != nil {
		t.Fatal(err)
	}
	var all []relation.Tuple
	for i := 0; i < 3; i++ {
		rows := rowsOf(t, sch, [][]any{{fmt.Sprintf("r%d", i), 10 * i, 10*i + 5}})
		all = append(all, rows...)
		if err := s.Append("R", batchOf(sch, rows)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact("R"); err != nil {
		t.Fatal(err)
	}
	segs, _ := s.Segments("R")
	if len(segs) != 1 {
		t.Fatalf("%d segments after compact, want 1", len(segs))
	}
	if segs[0].MinT != 0 || segs[0].MaxT != 25 {
		t.Fatalf("compacted fence [%d,%d), want [0,25)", segs[0].MinT, segs[0].MaxT)
	}
	r, err := openStore(t, dir).Load("R")
	if err != nil || !r.EqualAsList(relation.FromTuplesTrusted(sch, all)) {
		t.Fatalf("compacted relation differs (%v)", err)
	}
	assertNoOrphans(t, dir, segs)
}

// TestMayOverlap pins the fence test: unfenced segments always scan, an
// empty fence never overlaps, and boundary chronons follow closed-open
// period semantics.
func TestMayOverlap(t *testing.T) {
	fenced := store.SegmentInfo{Fenced: true, MinT: 10, MaxT: 20}
	cases := []struct {
		seg  store.SegmentInfo
		p    period.Period
		want bool
	}{
		{store.SegmentInfo{}, period.New(1000, 1001), true},        // unfenced: conservative
		{store.SegmentInfo{Fenced: true}, period.New(0, 1), false}, // empty fence: no rows with periods
		{fenced, period.New(10, 11), true},
		{fenced, period.New(19, 25), true},
		{fenced, period.New(20, 30), false}, // [10,20) meets [20,30): no overlap
		{fenced, period.New(0, 10), false},
		{fenced, period.New(0, 11), true},
	}
	for i, c := range cases {
		if got := c.seg.MayOverlap(c.p); got != c.want {
			t.Errorf("case %d: MayOverlap(%v) = %v, want %v", i, c.p, got, c.want)
		}
	}
}

// TestAppendValidation rejects rows that do not match the stored schema
// before anything touches disk.
func TestAppendValidation(t *testing.T) {
	dir := t.TempDir()
	sch := tempSchema()
	s := openStore(t, dir)
	if err := s.Create("R", sch, algebra.BaseInfo{}); err != nil {
		t.Fatal(err)
	}
	wrong := schema.MustNew(schema.Attr("X", value.KindInt))
	bad, err := relation.FromRows(wrong, [][]any{{1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("R", bad.Columns()); err == nil {
		t.Fatal("append of mis-shaped rows must fail")
	}
	// Right arity, but row 1 holds an int where T1 is a time: the plane is
	// boxed, and the check names the row and the attribute.
	mixed := batchOf(sch, []relation.Tuple{
		{value.String_("a"), value.Time(1), value.Time(2)},
		{value.String_("b"), value.Int(3), value.Time(4)},
	})
	if err := s.Append("R", mixed); err == nil || !strings.Contains(err.Error(), "row 1: attribute T1") {
		t.Fatalf("append of a mis-kinded cell: %v", err)
	}
	if v := s.Version(); v != 1 {
		t.Fatalf("failed append bumped version to %d", v)
	}
	if err := s.Append("missing", batchOf(sch, nil)); err == nil {
		t.Fatal("append to unknown relation must fail")
	}
}

// assertNoOrphans fails if the directory holds segment files the committed
// manifest does not reference.
func assertNoOrphans(t *testing.T, dir string, segs []store.SegmentInfo) {
	t.Helper()
	referenced := make(map[string]bool)
	for _, sg := range segs {
		referenced[sg.File] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") && !referenced[e.Name()] {
			t.Fatalf("orphan segment file %s left behind", e.Name())
		}
	}
}

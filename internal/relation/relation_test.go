package relation

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"tqp/internal/period"
	"tqp/internal/schema"
	"tqp/internal/value"
)

func temporalSchema() *schema.Schema {
	return schema.MustNew(
		schema.Attr("Name", value.KindString),
		schema.Attr("Grp", value.KindInt),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime),
	)
}

func sample() *Relation {
	return MustFromRows(temporalSchema(), [][]any{
		{"a", 1, 1, 4},
		{"a", 1, 1, 4},
		{"b", 2, 2, 6},
		{"a", 1, 4, 7},
		{"c", 3, 5, 9},
	})
}

func TestFromTuplesValidates(t *testing.T) {
	s := temporalSchema()
	good := NewTuple(value.String_("x"), value.Int(1), value.Time(1), value.Time(2))
	if _, err := FromTuples(s, []Tuple{good}); err != nil {
		t.Fatalf("valid tuple rejected: %v", err)
	}
	short := NewTuple(value.String_("x"))
	if _, err := FromTuples(s, []Tuple{short}); err == nil {
		t.Error("arity mismatch should fail")
	}
	wrongKind := NewTuple(value.Int(1), value.Int(1), value.Time(1), value.Time(2))
	if _, err := FromTuples(s, []Tuple{wrongKind}); err == nil {
		t.Error("domain mismatch should fail")
	}
}

func TestDuplicateDetection(t *testing.T) {
	r := sample()
	if !r.HasDuplicates() {
		t.Error("sample has a regular duplicate")
	}
	if !r.HasSnapshotDuplicates() {
		t.Error("the duplicated tuple overlaps itself: snapshot duplicates")
	}
	distinct := MustFromRows(temporalSchema(), [][]any{
		{"a", 1, 1, 4},
		{"a", 1, 4, 7}, // adjacent, value-equivalent, not overlapping
		{"b", 2, 2, 6},
	})
	if distinct.HasDuplicates() {
		t.Error("no regular duplicates here")
	}
	if distinct.HasSnapshotDuplicates() {
		t.Error("adjacent periods do not create snapshot duplicates")
	}
	if distinct.IsCoalesced() {
		t.Error("adjacent value-equivalent periods mean the relation is uncoalesced")
	}
}

func TestSnapshot(t *testing.T) {
	r := sample()
	s5 := r.Snapshot(5)
	// Live at 5: b [2,6), a [4,7), c [5,9) — in list order.
	if s5.Len() != 3 {
		t.Fatalf("snapshot(5) = %d tuples:\n%s", s5.Len(), s5)
	}
	if s5.Schema().Temporal() {
		t.Error("snapshots are conventional relations")
	}
	if got := s5.At(0)[0].AsString(); got != "b" {
		t.Errorf("snapshot preserves list order; first = %s", got)
	}
	s0 := r.Snapshot(0)
	if s0.Len() != 0 {
		t.Error("nothing live at 0")
	}
}

func TestSnapshotPanicsOnConventional(t *testing.T) {
	plain := MustFromRows(schema.MustNew(schema.Attr("A", value.KindInt)), [][]any{{1}})
	defer func() {
		if recover() == nil {
			t.Error("Snapshot of a snapshot relation should panic")
		}
	}()
	plain.Snapshot(1)
}

func TestSortStableAndOrder(t *testing.T) {
	spec := OrderSpec{Key("Name")}
	r, err := sample().Sorted(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !r.SortedBy(spec) {
		t.Error("Sorted must establish the order")
	}
	if !r.Order().Equal(spec) {
		t.Errorf("recorded order %s", r.Order())
	}
	// Stability: the two a[1,4) duplicates and a[4,7) keep insertion order.
	if !r.PeriodOf(0).Equal(period.New(1, 4)) || !r.PeriodOf(2).Equal(period.New(4, 7)) {
		t.Errorf("stable sort broke tie order:\n%s", r)
	}
	if _, err := r.Sorted(OrderSpec{Key("missing")}); err == nil {
		t.Error("sorting on a missing attribute should fail")
	}
}

func TestOrderSpecHelpers(t *testing.T) {
	spec := OrderSpec{Key("A"), KeyDesc("B"), Key(schema.T1), Key("C")}
	if got := spec.TimeFreePrefix(); len(got) != 2 || got[1].Attr != "B" {
		t.Errorf("TimeFreePrefix = %s", got)
	}
	if !(OrderSpec{Key("A")}).IsPrefixOf(spec) {
		t.Error("IsPrefixOf prefix")
	}
	if (OrderSpec{Key("B")}).IsPrefixOf(spec) {
		t.Error("IsPrefixOf non-prefix")
	}
	if got := spec.Prefix([]string{"A", "B"}); len(got) != 2 {
		t.Errorf("Prefix = %s", got)
	}
	if got := spec.Prefix([]string{"B"}); len(got) != 0 {
		t.Errorf("Prefix without the head = %s", got)
	}
	ren := spec.Rename("A", "Z")
	if ren[0].Attr != "Z" || spec[0].Attr != "A" {
		t.Error("Rename must copy")
	}
	if spec.String() == "" || (OrderSpec{}).String() != "⟨⟩" {
		t.Error("String")
	}
}

func TestTupleHelpers(t *testing.T) {
	a := NewTuple(value.Int(1), value.String_("x"))
	b := a.Clone()
	if !a.Equal(b) || a.Compare(b) != 0 {
		t.Error("clone equality")
	}
	c := NewTuple(value.Int(1), value.String_("y"))
	if a.Equal(c) || a.Compare(c) >= 0 {
		t.Error("tuple comparison")
	}
	if a.Key() == c.Key() {
		t.Error("distinct tuples need distinct keys")
	}
	if a.KeyOn([]int{0}) != c.KeyOn([]int{0}) {
		t.Error("restricted keys agree on shared prefixes")
	}
	short := NewTuple(value.Int(1))
	if short.Compare(a) >= 0 || a.Compare(short) <= 0 {
		t.Error("shorter tuples order first")
	}
}

func TestCriticalInstants(t *testing.T) {
	r := sample()
	ws := r.CriticalInstants()
	if len(ws) == 0 {
		t.Fatal("expected witnesses")
	}
	// Between consecutive witnesses every snapshot is constant; sanity:
	// each witness yields a well-formed snapshot.
	for _, w := range ws {
		_ = r.Snapshot(w)
	}
}

func TestStringRendering(t *testing.T) {
	out := sample().String()
	if !strings.Contains(out, "Name") || !strings.Contains(out, "Grp") {
		t.Errorf("missing header:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Errorf("expected header+5 rows, got %d lines", len(lines))
	}
}

// TestSortPermutationInvariant: sorting any permutation of a relation by a
// total key yields the same list.
func TestSortPermutationInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := sample()
		spec := OrderSpec{Key("Name"), Key("Grp"), Key(schema.T1), Key(schema.T2)}
		p := r.Permuted(rng.Perm(r.Len()))
		rs, err := r.Sorted(spec)
		if err != nil {
			return false
		}
		ps, err := p.Sorted(spec)
		if err != nil {
			return false
		}
		return rs.EqualAsList(ps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

package relation

import (
	"strconv"
	"sync"
	"testing"

	"tqp/internal/schema"
	"tqp/internal/value"
)

// keys reads column 0 of every presented row of r's batch.
func keys(r *Relation) []int64 {
	b := r.Columns()
	out := make([]int64, b.Rows())
	for k := range out {
		out[k] = b.Cols[0].At(b.RowIndex(k)).AsInt()
	}
	return out
}

func equalKeys(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func columnarRelation(n int) (*Relation, []Tuple) {
	s := schema.MustNew(schema.Attr("K", value.KindInt), schema.Attr("S", value.KindString))
	var ts []Tuple
	for i := 0; i < n; i++ {
		ts = append(ts, Tuple{value.Int(int64(n - i)), value.String_(strconv.Itoa(i))})
	}
	return FromColumnar(s, columnsOf(s, ts)), ts
}

// TestFromColumnarLenAndCell: a relation answers Len, its cells (Columns)
// and its periods from the batch and derives no tuples until Tuples or At
// asks.
func TestFromColumnarLenAndCell(t *testing.T) {
	r, ts := columnarRelation(5)
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}
	b := r.Columns()
	if b != r.cols {
		t.Fatal("Columns did not answer with the relation's batch")
	}
	for i := 0; i < r.Len(); i++ {
		if got := b.Cols[1].At(i).AsString(); got != strconv.Itoa(i) {
			t.Errorf("cell (%d, 1) = %q", i, got)
		}
	}
	if r.tuples != nil {
		t.Fatal("Len/Columns derived tuples")
	}
	if got := r.At(2); !got.Equal(ts[2]) {
		t.Errorf("At(2) = %v, want %v", got, ts[2])
	}
	derived := r.tuples
	if got := r.Tuples(); &got[0] != &derived[0] {
		t.Error("Tuples derived the list a second time")
	}
}

// TestFromTuplesTrustedKeepsView: FromTuplesTrusted transposes the list
// once and keeps the caller's slice as the tuple view, so no reader — nor
// a Clone's — derives it again; a Clone shares its source's view however it
// was built; every constructor answers with the same list.
func TestFromTuplesTrustedKeepsView(t *testing.T) {
	col, ts := columnarRelation(4)
	r := FromTuplesTrusted(col.Schema(), ts)
	if got := r.Tuples(); &got[0] != &ts[0] {
		t.Error("FromTuplesTrusted derived a tuple view instead of keeping the caller's")
	}
	if got := r.Clone().Tuples(); &got[0] != &ts[0] {
		t.Error("a Clone derived the tuple view its source holds")
	}
	clone := col.Clone()
	if got := clone.Tuples(); &got[0] != &col.Tuples()[0] || clone.Columns() != col.Columns() {
		t.Error("a Clone and its source derived two tuple views of one batch")
	}
	checked, err := FromTuples(col.Schema(), ts)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]any, len(ts))
	for i, tp := range ts {
		rows[i] = []any{int(tp[0].AsInt()), tp[1].AsString()}
	}
	for _, other := range []*Relation{col, checked, MustFromRows(col.Schema(), rows)} {
		if !equalKeys(keys(other), keys(r)) || !other.EqualAsList(r) {
			t.Errorf("constructors disagree:\n%s\nvs\n%s", other, r)
		}
	}
	if _, err := FromTuples(col.Schema(), []Tuple{{value.String_("x"), value.Int(1)}}); err == nil {
		t.Error("FromTuples accepted a tuple against the schema")
	}
}

// TestFromColumnarConcurrentTuples: concurrent first readers of a
// relation derive its tuples exactly once and all see the same list (run
// under -race).
func TestFromColumnarConcurrentTuples(t *testing.T) {
	r, _ := columnarRelation(300)
	const readers = 8
	got := make([][]Tuple, readers)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = r.Tuples()
			_ = r.Len()
			_ = r.Columns()
		}(w)
	}
	wg.Wait()
	for w := range got {
		if len(got[w]) != 300 || &got[w][0] != &got[0][0] {
			t.Fatalf("reader %d saw a different list", w)
		}
	}
}

// TestPermutedTuples: Permuted presents a list as a selection view of its
// batch, building no tuple and copying no plane; an empty index presents no
// row.
func TestPermutedTuples(t *testing.T) {
	col, ts := columnarRelation(4)
	list := FromTuplesTrusted(col.Schema(), ts)
	list.SetOrder(OrderSpec{Key("K")})
	idx := []int{2, 0, 3, 1}
	for _, r := range []*Relation{list, col} {
		p := r.Permuted(idx)
		if !p.Order().Empty() {
			t.Errorf("Permuted kept order %s", p.Order())
		}
		if p.tuples != nil || &p.cols.Cols[0].Ints[0] != &r.cols.Cols[0].Ints[0] {
			t.Error("Permuted built tuples or copied the planes")
		}
		for k, i := range idx {
			if !p.At(k).Equal(ts[i]) {
				t.Errorf("row %d = %v, want %v", k, p.At(k), ts[i])
			}
		}
		if n := r.Permuted(nil).Len(); n != 0 {
			t.Errorf("Permuted(nil) presents %d rows", n)
		}
	}
	if col.tuples != nil {
		t.Error("Permuted derived the base relation's tuples")
	}
}

// TestSortedIsAStableView: Sorted answers with a selection view of the
// batch that keeps ties in list order, records the order, leaves the
// source list as it was, and sorts a selection view by its presented rows.
func TestSortedIsAStableView(t *testing.T) {
	s := schema.MustNew(schema.Attr("K", value.KindInt), schema.Attr("S", value.KindString))
	r := MustFromRows(s, [][]any{{2, "a"}, {1, "b"}, {2, "c"}, {1, "d"}, {3, "e"}})
	for _, c := range []struct {
		spec OrderSpec
		want []string
	}{
		{OrderSpec{Key("K")}, []string{"b", "d", "a", "c", "e"}},
		{OrderSpec{KeyDesc("K")}, []string{"e", "a", "c", "b", "d"}},
		{OrderSpec{Key("K"), KeyDesc("S")}, []string{"d", "b", "c", "a", "e"}},
	} {
		got, err := r.Sorted(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Order().Equal(c.spec) || &got.cols.Cols[1].Strs[0] != &r.cols.Cols[1].Strs[0] {
			t.Errorf("%s: order %s, or the planes were copied", c.spec, got.Order())
		}
		for k, w := range c.want {
			if v := got.At(k)[1].AsString(); v != w {
				t.Errorf("%s: row %d = %s, want %s", c.spec, k, v, w)
			}
		}
	}
	if !equalKeys(keys(r), []int64{2, 1, 2, 1, 3}) || !r.Order().Empty() {
		t.Error("Sorted changed the source relation")
	}
	view := r.Permuted([]int{4, 3, 2})
	got, err := view.Sorted(OrderSpec{Key("K")})
	if err != nil {
		t.Fatal(err)
	}
	if !equalKeys(keys(got), []int64{1, 2, 3}) || got.At(0)[1].AsString() != "d" {
		t.Errorf("sorting a view presents %v", keys(got))
	}
}

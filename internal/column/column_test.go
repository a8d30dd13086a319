package column

import (
	"math"
	"sync"
	"testing"

	"tqp/internal/period"
	"tqp/internal/schema"
	"tqp/internal/value"
)

func sample(n int) *Batch {
	s := schema.MustNew(
		schema.Attr("K", value.KindInt),
		schema.Attr("S", value.KindString),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime))
	b := NewBatch(s, n)
	for i := 0; i < n; i++ {
		b.Cols[0].Append(value.Int(int64(i)))
		b.Cols[1].Append(value.String_(string(rune('a' + i%26))))
		b.Cols[2].Append(value.Time(period.Chronon(i)))
		b.Cols[3].Append(value.Time(period.Chronon(i + 3)))
	}
	b.N = n
	return b
}

// keys reads column K of every presented row.
func keys(b *Batch) []int64 {
	out := make([]int64, b.Rows())
	for k := range out {
		out[k] = b.Cols[0].At(b.RowIndex(k)).AsInt()
	}
	return out
}

func equal(a []int64, b ...int64) bool {
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

// TestViewsPresentTheirRows pins the view algebra every owner of a batch
// relies on: Select composes with an existing selection and presents no row
// for an empty index, RangeView cuts presented rows of dense and selected
// batches alike, and Compact and Concat materialize exactly what is
// presented.
func TestViewsPresentTheirRows(t *testing.T) {
	b := sample(6)
	sel := b.Select([]int{5, 3, 1})
	if got := keys(sel); !equal(got, 5, 3, 1) {
		t.Fatalf("Select = %v", got)
	}
	if got := keys(sel.Select([]int{2, 0})); !equal(got, 1, 5) {
		t.Fatalf("Select of a selection = %v", got)
	}
	for _, idx := range [][]int{nil, {}} {
		if n := b.Select(idx).Rows(); n != 0 {
			t.Fatalf("Select(%v) presents %d rows", idx, n)
		}
	}
	if got := keys(b.RangeView(2, 5)); !equal(got, 2, 3, 4) {
		t.Fatalf("RangeView of a dense batch = %v", got)
	}
	if got := keys(sel.RangeView(1, 3)); !equal(got, 3, 1) {
		t.Fatalf("RangeView of a selection = %v", got)
	}
	c := sel.Compact()
	if c.Sel != nil || c.N != 3 || !equal(keys(c), 5, 3, 1) {
		t.Fatalf("Compact = %v (N %d, sel %v)", keys(c), c.N, c.Sel)
	}
	if p := c.PeriodAt(2, 3, 0); p != (period.Period{Start: 5, End: 8}) {
		t.Fatalf("PeriodAt = %v", p)
	}
	all := Concat(b.Schema, []*Batch{sel, b.RangeView(0, 2)}, 5)
	if !equal(keys(all), 5, 3, 1, 0, 1) {
		t.Fatalf("Concat = %v", keys(all))
	}
	row := make([]value.Value, 4)
	all.FillRow(row, 0)
	if row[1].AsString() != "f" || row[3].AsTime() != 8 {
		t.Fatalf("FillRow = %v", row)
	}
}

// TestVecDemotesAndResets: a typed plane that receives a foreign kind
// demotes to boxed cells without losing a value, every cell keeps its kind
// and hash, and Reset empties a batch for reuse.
func TestVecDemotesAndResets(t *testing.T) {
	vals := []value.Value{value.Int(-1), value.Int(math.MaxInt64), value.Float(math.NaN()), value.String_("x"), value.Bool(true)}
	c := NewVec(value.KindInt, 0)
	for _, v := range vals {
		c.Append(v)
	}
	if c.Kind != value.KindInvalid || c.Len() != len(vals) {
		t.Fatalf("kind %v, len %d after a foreign append", c.Kind, c.Len())
	}
	for i, v := range vals {
		if got := c.At(i); !got.Equal(v) || got.Kind() != v.Kind() || c.HashInto(i, 7) != v.HashInto(7) {
			t.Fatalf("cell %d = %v, want %v", i, got, v)
		}
	}
	b := sample(3)
	b = b.WithSel([]int{2})
	b.Reset()
	if b.Rows() != 0 || b.N != 0 || b.Sel != nil || b.Cols[1].Kind != value.KindString || b.Cols[1].Len() != 0 {
		t.Fatalf("Reset left %d rows, sel %v, kind %v", b.Rows(), b.Sel, b.Cols[1].Kind)
	}
}

// TestMemSize: a row is priced as its tuple would be — a fixed part per
// cell plus string payloads — whether its strings sit on a typed or a boxed
// plane.
func TestMemSize(t *testing.T) {
	b := sample(2)
	boxed := NewVec(value.KindInvalid, 2)
	boxed.AppendRange(&b.Cols[1], 0, 2)
	wide := &Batch{Schema: b.Schema, Cols: []Vec{b.Cols[0], boxed, b.Cols[2], b.Cols[3]}, N: 2}
	if b.MemSize(0) != int64(tupleOverhead+4*valueSize+1) || wide.MemSize(1) != b.MemSize(1) {
		t.Fatalf("MemSize typed %d, boxed %d", b.MemSize(1), wide.MemSize(1))
	}
}

// TestViewsNeverWriteShared: views of one batch are read concurrently by
// many owners (a catalog relation's batch by every query scanning it), and
// appending to a view's planes must reallocate rather than write into the
// shared storage. Run under -race.
func TestViewsNeverWriteShared(t *testing.T) {
	b := sample(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := b.RangeView(w, w+8)
			for c := range v.Cols {
				v.Cols[c].AppendFrom(&b.Cols[c], 0)
			}
			v.N++
			s := b.Select([]int{w, 63 - w})
			if got := keys(s); !equal(got, int64(w), int64(63-w)) {
				t.Errorf("reader %d: Select = %v", w, got)
			}
			if got := keys(v); got[8] != 0 || got[0] != int64(w) {
				t.Errorf("reader %d: view = %v", w, got)
			}
		}(w)
	}
	wg.Wait()
	if got := keys(b); got[8] != 8 || got[63] != 63 {
		t.Fatalf("a view's append wrote into the shared planes: %v", got)
	}
}

package spill

import (
	"math"
	"testing"

	"tqp/internal/column"
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// colSample is a columnar payload with one homogeneous int column, one
// heterogeneous column that mixes every kind (forcing the per-cell kind
// encoding), and one string column with boundary contents, on the planes a
// schema of those kinds gives it: the middle one demotes to boxed cells.
func colSample(n int) ([]int, *column.Batch) {
	sch := schema.MustNew(schema.Attr("I", value.KindInt), schema.Attr("H", value.KindInt), schema.Attr("S", value.KindString))
	b := column.NewBatch(sch, n)
	seqs := make([]int, n)
	hetero := []value.Value{
		value.Int(-1), value.Float(math.NaN()), value.String_("x\x00y"),
		value.Bool(true), value.Time(period.NowMarker), value.Float(math.Inf(-1)),
	}
	for i := range seqs {
		seqs[i] = i*3 + 1
		b.Cols[0].Append(value.Int(int64(i) - 2))
		b.Cols[1].Append(hetero[i%len(hetero)])
		b.Cols[2].Append(value.String_(string(rune('A' + i%26))))
	}
	b.N = n
	return seqs, b
}

// TestWriteBatchRoundTrip pins the columnar writer against the block reader:
// the presented rows of a dense batch and of a selection view (the external
// sort's permutation) decode to identical seqs and values, across block
// boundaries and with heterogeneous columns, and the file's MemBytes is the
// rows' accounted size.
func TestWriteBatchRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, BlockRows - 1, BlockRows, BlockRows + 1, 2*BlockRows + 7} {
		seqs, dense := colSample(n)
		reversed := make([]int, n)
		for k := range reversed {
			reversed[k] = n - 1 - k
		}
		for _, b := range []*column.Batch{dense, dense.WithSel(reversed)} {
			m := NewManager(t.TempDir())
			w := m.NewPass().Writer()
			if err := w.Write(seqs, b); err != nil {
				t.Fatal(err)
			}
			f, err := w.Finish()
			if err != nil {
				t.Fatal(err)
			}
			mem := dense.Bytes(0, n)
			if f.Count() != n || f.MemBytes() != mem {
				t.Fatalf("n=%d: count=%d mem=%d, want %d/%d", n, f.Count(), f.MemBytes(), n, mem)
			}
			r, err := f.Open()
			if err != nil {
				t.Fatal(err)
			}
			got := column.NewBatch(dense.Schema, n)
			var gotSeqs []int
			for {
				bseqs, ok, err := r.Next(got)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				if len(bseqs) == 0 || len(bseqs) > BlockRows {
					t.Fatalf("n=%d: block of %d rows", n, len(bseqs))
				}
				gotSeqs = append(gotSeqs, bseqs...)
			}
			r.Close()
			if got.N != n || len(gotSeqs) != n {
				t.Fatalf("n=%d: decoded %d rows, %d seqs", n, got.N, len(gotSeqs))
			}
			for k := 0; k < n; k++ {
				checkColRow(t, n, k, gotSeqs[k], rowOf(got, k), seqs[k], rowOf(b, b.RowIndex(k)))
			}
			m.Cleanup()
		}
	}
}

// rowOf reads physical row i of b as a tuple.
func rowOf(b *column.Batch, i int) relation.Tuple {
	t := make(relation.Tuple, len(b.Cols))
	b.FillRow(t, i)
	return t
}

func checkColRow(t *testing.T, n, i, seq int, tp relation.Tuple, wantSeq int, want relation.Tuple) {
	t.Helper()
	if seq != wantSeq {
		t.Fatalf("n=%d row %d: seq %d, want %d", n, i, seq, wantSeq)
	}
	if len(tp) != len(want) {
		t.Fatalf("n=%d row %d: arity %d, want %d", n, i, len(tp), len(want))
	}
	for c := range tp {
		if !tp[c].Equal(want[c]) || tp[c].Kind() != want[c].Kind() {
			t.Fatalf("n=%d row %d col %d: %v (%v), want %v", n, i, c, tp[c], tp[c].Kind(), want[c])
		}
	}
}

// TestInterleavedAppendAndBlockCols checks that writes of different arity
// compose on one file — a head run, a block-spanning run of wider rows and
// a one-row tail, whose arity changes the per-block arity header must carry
// — that a reader sees the concatenation in order, and that the
// fixed-arity reader refuses a foreign-arity block instead of mis-filing
// its cells.
func TestInterleavedAppendAndBlockCols(t *testing.T) {
	m := NewManager(t.TempDir())
	defer m.Cleanup()
	w := m.NewPass().Writer()
	head := []relation.Tuple{
		relation.NewTuple(value.Int(1), value.String_("r")),
		relation.NewTuple(value.Float(2.5), value.Bool(false)),
	}
	if err := w.Write([]int{100, 101}, batchOf(2, head)); err != nil {
		t.Fatal(err)
	}
	seqs, mid := colSample(BlockRows + 3) // wider arity than the head rows
	if err := w.Write(seqs, mid); err != nil {
		t.Fatal(err)
	}
	tail := relation.NewTuple(value.Time(7))
	if err := w.Write([]int{999}, batchOf(1, []relation.Tuple{tail})); err != nil {
		t.Fatal(err)
	}
	f, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	wantN := len(head) + len(seqs) + 1
	if f.Count() != wantN {
		t.Fatalf("count %d, want %d", f.Count(), wantN)
	}
	r, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rr := &rowReader{r: r}
	for i, want := range head {
		seq, tp, ok, err := rr.next(2)
		if err != nil || !ok || seq != 100+i || !tp.Equal(want) {
			t.Fatalf("head row %d: seq=%d tuple=%s ok=%v err=%v", i, seq, tp, ok, err)
		}
	}
	for i := range seqs {
		seq, tp, ok, err := rr.next(3)
		if err != nil || !ok {
			t.Fatalf("row %d: ok=%v err=%v", i, ok, err)
		}
		checkColRow(t, wantN, i, seq, tp, seqs[i], rowOf(mid, i))
	}
	if seq, tp, ok, err := rr.next(1); err != nil || !ok || seq != 999 || !tp.Equal(tail) {
		t.Fatalf("tail row: seq=%d tuple=%s ok=%v err=%v", seq, tp, ok, err)
	}
	if _, _, ok, err := rr.next(1); ok || err != nil {
		t.Fatalf("want clean end, got ok=%v err=%v", ok, err)
	}
	cr, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer cr.Close()
	if _, _, err := cr.Next(batchOf(3, nil)); err == nil {
		t.Fatal("a 3-column reader accepted the 2-column head block")
	}
}

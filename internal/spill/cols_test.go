package spill

import (
	"math"
	"testing"

	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/value"
)

// colSample is a columnar payload with one homogeneous int column, one
// heterogeneous column that mixes every kind (forcing the per-cell kind
// encoding), and one string column with boundary contents.
func colSample(n int) ([]int, [][]value.Value) {
	seqs := make([]int, n)
	rows := make([][]value.Value, n)
	hetero := []value.Value{
		value.Int(-1), value.Float(math.NaN()), value.String_("x\x00y"),
		value.Bool(true), value.Time(period.NowMarker), value.Float(math.Inf(-1)),
	}
	for i := range seqs {
		seqs[i] = i*3 + 1
		rows[i] = []value.Value{
			value.Int(int64(i) - 2),
			hetero[i%len(hetero)],
			value.String_(string(rune('A' + i%26))),
		}
	}
	return seqs, rows
}

// TestAppendBlockColsRoundTrip pins the columnar writer against both
// readers: tuple-at-a-time Next (the repartition path) and NextBlockCols
// (the partition loader's block→planes path) must decode identical seqs and
// values, across block boundaries and with heterogeneous columns.
func TestAppendBlockColsRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, BlockRows - 1, BlockRows, BlockRows + 1, 2*BlockRows + 7} {
		m := NewManager(t.TempDir())
		w, err := m.Create()
		if err != nil {
			t.Fatal(err)
		}
		seqs, rows := colSample(n)
		mem := int64(n) * RowMemSize(3)
		err = w.AppendBlockCols(seqs, 3, mem, func(row, col int) value.Value {
			return rows[row][col]
		})
		if err != nil {
			t.Fatal(err)
		}
		f, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if f.Count() != n || f.MemBytes() != mem {
			t.Fatalf("n=%d: count=%d mem=%d, want %d/%d", n, f.Count(), f.MemBytes(), n, mem)
		}
		for pass, block := range []bool{false, true} {
			r, err := f.Open()
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			for {
				if block {
					cols := make([][]value.Value, 3)
					bseqs, ok, err := r.NextBlockCols(3, func(_, col int, v value.Value) {
						cols[col] = append(cols[col], v)
					})
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					if len(bseqs) == 0 {
						t.Fatalf("n=%d: empty block", n)
					}
					for i := range bseqs {
						if len(cols[0]) != len(bseqs) || len(cols[1]) != len(bseqs) || len(cols[2]) != len(bseqs) {
							t.Fatalf("n=%d: block of %d seqs has columns of %d/%d/%d cells", n, len(bseqs), len(cols[0]), len(cols[1]), len(cols[2]))
						}
						checkColRow(t, n, got, bseqs[i], relation.Tuple{cols[0][i], cols[1][i], cols[2][i]}, seqs, rows)
						got++
					}
				} else {
					seq, tp, ok, err := r.Next()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					checkColRow(t, n, got, seq, tp, seqs, rows)
					got++
				}
			}
			if got != n {
				t.Fatalf("n=%d pass=%d: decoded %d rows", n, pass, got)
			}
			r.Close()
		}
		m.Cleanup()
	}
}

func checkColRow(t *testing.T, n, i, seq int, tp relation.Tuple, seqs []int, rows [][]value.Value) {
	t.Helper()
	if seq != seqs[i] {
		t.Fatalf("n=%d row %d: seq %d, want %d", n, i, seq, seqs[i])
	}
	if len(tp) != len(rows[i]) {
		t.Fatalf("n=%d row %d: arity %d, want %d", n, i, len(tp), len(rows[i]))
	}
	for c := range tp {
		if !tp[c].Equal(rows[i][c]) || tp[c].Kind() != rows[i][c].Kind() {
			t.Fatalf("n=%d row %d col %d: %v (%v), want %v", n, i, c, tp[c], tp[c].Kind(), rows[i][c])
		}
	}
}

// TestInterleavedAppendAndBlockCols checks that row appends and columnar
// block appends compose on one file — including an arity change between
// the two regions, which the per-block arity header must carry — that the
// tuple reader sees the concatenation in order, and that the fixed-arity
// block→planes reader refuses the foreign-arity block instead of
// mis-filing its cells.
func TestInterleavedAppendAndBlockCols(t *testing.T) {
	m := NewManager(t.TempDir())
	defer m.Cleanup()
	w, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	head := []relation.Tuple{
		relation.NewTuple(value.Int(1), value.String_("r")),
		relation.NewTuple(value.Float(2.5), value.Bool(false)),
	}
	for i, tp := range head {
		if err := w.Append(100+i, tp); err != nil {
			t.Fatal(err)
		}
	}
	seqs, rows := colSample(BlockRows + 3) // wider arity than the head rows
	err = w.AppendBlockCols(seqs, 3, int64(len(seqs))*RowMemSize(3), func(r, c int) value.Value {
		return rows[r][c]
	})
	if err != nil {
		t.Fatal(err)
	}
	tail := relation.NewTuple(value.Time(7))
	if err := w.Append(999, tail); err != nil {
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
	var gotSeqs []int
	var gotRows []relation.Tuple
	for {
		seq, tp, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		gotSeqs = append(gotSeqs, seq)
		gotRows = append(gotRows, tp)
	}
	if len(gotRows) != wantN {
		t.Fatalf("decoded %d rows, want %d", len(gotRows), wantN)
	}
	for i, tp := range head {
		if gotSeqs[i] != 100+i || !gotRows[i].Equal(tp) {
			t.Fatalf("head row %d: seq=%d tuple=%s", i, gotSeqs[i], gotRows[i])
		}
	}
	for i := range seqs {
		checkColRow(t, wantN, i, gotSeqs[len(head)+i], gotRows[len(head)+i], seqs, rows)
	}
	last := len(gotRows) - 1
	if gotSeqs[last] != 999 || !gotRows[last].Equal(tail) {
		t.Fatalf("tail row: seq=%d tuple=%s", gotSeqs[last], gotRows[last])
	}
	cr, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer cr.Close()
	if _, _, err := cr.NextBlockCols(3, func(int, int, value.Value) {}); err == nil {
		t.Fatal("NextBlockCols(3) accepted the 2-column head block")
	}
}

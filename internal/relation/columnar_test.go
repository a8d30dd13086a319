package relation

import (
	"strconv"
	"sync"
	"testing"

	"tqp/internal/schema"
	"tqp/internal/value"
)

func twoRowRelation(t *testing.T) *Relation {
	t.Helper()
	s := schema.MustNew(schema.Attr("K", value.KindInt))
	return MustFromRows(s, [][]any{{2}, {1}})
}

// keys reads column 0 of every presented row of r's batch.
func keys(r *Relation) []int64 {
	b, _ := r.Columns()
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

// TestColumnsStaleAfterSort pins the check-then-act race of the columnar
// scan cache: an image built before a SortStable must never be served after
// it. The row count is unchanged by the sort, so only a cache the mutation
// itself drops can tell the two lists apart.
func TestColumnsStaleAfterSort(t *testing.T) {
	r := twoRowRelation(t)
	before, converted := r.Columns()
	if !converted {
		t.Fatal("the first Columns call on a tuple list did not convert")
	}
	if err := r.SortStable(OrderSpec{Key("K")}); err != nil {
		t.Fatal(err)
	}
	after, converted := r.Columns()
	if after == before || !converted {
		t.Fatal("the cache served an image built before the sort")
	}
	if got := keys(r); !equalKeys(got, []int64{1, 2}) {
		t.Fatalf("image after the sort presents %v, want [1 2]", got)
	}
	if again, converted := r.Columns(); again != after || converted {
		t.Fatal("a fresh image was not cached")
	}
}

// TestColumnsNotReadmittedAfterRestore checks that a mutate-and-restore
// cycle never re-admits an image: sorting back to the original order must
// still convert afresh (the row count and even the list cannot distinguish
// the two states; dropping the image on every mutation can).
func TestColumnsNotReadmittedAfterRestore(t *testing.T) {
	r := twoRowRelation(t)
	original, _ := r.Columns()
	if err := r.SortStable(OrderSpec{Key("K")}); err != nil {
		t.Fatal(err)
	}
	if err := r.SortStable(OrderSpec{KeyDesc("K")}); err != nil {
		t.Fatal(err)
	}
	fresh, converted := r.Columns()
	if fresh == original || !converted {
		t.Fatal("the cache re-admitted the image from before two sorts")
	}
	// The fresh image is cached…
	if again, converted := r.Columns(); again != fresh || converted {
		t.Fatal("the cache dropped a fresh image")
	}
	// …and dropped by the next mutation.
	r.Append(Tuple{value.Int(3)})
	if got, converted := r.Columns(); got == fresh || !converted {
		t.Fatal("the image survived Append")
	}
	if got := keys(r); !equalKeys(got, []int64{2, 1, 3}) {
		t.Fatalf("image after Append presents %v, want [2 1 3]", got)
	}
}

// TestColumnsConcurrentSortAndAppend stresses the cache under the race
// detector: readers call Columns while a writer alternates the sort order
// and appends. Every served image must present a list the relation really
// held — whole rows, no row lost or torn — and once the writer's final
// mutation has returned, the cache can only serve an image built after it.
func TestColumnsConcurrentSortAndAppend(t *testing.T) {
	r := twoRowRelation(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// The list holds 1, 2 and the appended 100, 101, … — each
				// once, whatever the order — so an image presents exactly
				// 2 + k distinct keys with the appended ones a prefix.
				got := keys(r)
				seen := make(map[int64]bool, len(got))
				for _, k := range got {
					seen[k] = true
				}
				ok := len(seen) == len(got) && seen[1] && seen[2]
				for k := int64(100); k < int64(100+len(got)-2); k++ {
					ok = ok && seen[k]
				}
				if !ok {
					t.Errorf("served an image of no list the relation held: %v", got)
					return
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		var err error
		switch i % 3 {
		case 0:
			err = r.SortStable(OrderSpec{Key("K")})
		case 1:
			err = r.SortStable(OrderSpec{KeyDesc("K")})
		default:
			r.Append(Tuple{value.Int(int64(100 + i/3))})
		}
		if err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()

	// Quiesced: one final mutation, then no reader runs again — the cache
	// must be empty, not holding an image of an older list.
	if err := r.SortStable(OrderSpec{Key("K")}); err != nil {
		t.Fatal(err)
	}
	b, converted := r.Columns()
	if !converted {
		t.Fatal("the cache held an image from before the final sort")
	}
	if got := keys(r); b.Rows() != 102 || got[0] != 1 || got[101] != 199 {
		t.Fatalf("final image presents %d rows, %v … %v", b.Rows(), got[0], got[len(got)-1])
	}
}

func columnarRelation(n int) (*Relation, []Tuple) {
	s := schema.MustNew(schema.Attr("K", value.KindInt), schema.Attr("S", value.KindString))
	var ts []Tuple
	for i := 0; i < n; i++ {
		ts = append(ts, Tuple{value.Int(int64(n - i)), value.String_(strconv.Itoa(i))})
	}
	return FromColumnar(s, columnsOf(s, ts)), ts
}

// TestFromColumnarLenAndCell: a columnar-primary relation answers Len, its
// cells (Columns) and its periods from the batch and derives no tuples
// until Tuples or At asks.
func TestFromColumnarLenAndCell(t *testing.T) {
	r, ts := columnarRelation(5)
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}
	b, converted := r.Columns()
	if b != r.cols || converted {
		t.Fatal("Columns did not answer with the primary batch")
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

// TestFromColumnarConcurrentTuples: concurrent first readers of a
// columnar-primary relation derive its tuples exactly once and all see the
// same list (run under -race).
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
			_, _ = r.Columns()
		}(w)
	}
	wg.Wait()
	for w := range got {
		if len(got[w]) != 300 || &got[w][0] != &got[0][0] {
			t.Fatalf("reader %d saw a different list", w)
		}
	}
}

// TestFromColumnarMutationDropsColumns: Append and SortStable turn a
// columnar-primary relation into a tuple list — the primary batch drops and
// the next Columns converts the new list — and keep every row.
func TestFromColumnarMutationDropsColumns(t *testing.T) {
	for _, mutate := range []struct {
		name string
		f    func(r *Relation) error
		want []int64
	}{
		{"Append", func(r *Relation) error { r.Append(Tuple{value.Int(9), value.String_("x")}); return nil }, []int64{3, 2, 1, 9}},
		{"SortStable", func(r *Relation) error { return r.SortStable(OrderSpec{Key("K")}) }, []int64{1, 2, 3}},
	} {
		r, _ := columnarRelation(3)
		primary, _ := r.Columns()
		if err := mutate.f(r); err != nil {
			t.Fatal(err)
		}
		if r.cols != nil {
			t.Errorf("%s kept the columns", mutate.name)
		}
		if b, converted := r.Columns(); b == primary || !converted {
			t.Errorf("%s left the old batch in place", mutate.name)
		}
		if r.Len() != len(mutate.want) {
			t.Fatalf("%s: Len = %d, want %d", mutate.name, r.Len(), len(mutate.want))
		}
		if got := keys(r); !equalKeys(got, mutate.want) {
			t.Errorf("%s: keys %v, want %v", mutate.name, got, mutate.want)
		}
	}
}

// TestPermutedTuples: Permuted gathers a tuple list by index and a
// columnar-primary list as a selection view of its batch, building no
// tuple; an empty index presents no row.
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
		if r == col && (p.tuples != nil || &p.cols.Cols[0].Ints[0] != &col.cols.Cols[0].Ints[0]) {
			t.Error("Permuted of a columnar list built tuples or copied the planes")
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

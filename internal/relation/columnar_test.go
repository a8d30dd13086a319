package relation

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"tqp/internal/schema"
	"tqp/internal/value"
)

func twoRowRelation(t *testing.T) *Relation {
	t.Helper()
	s := schema.MustNew(schema.Attr("K", value.KindInt))
	return MustFromRows(s, [][]any{{2}, {1}})
}

// TestColumnarImageStaleAfterSort pins the check-then-act race of the
// columnar scan cache as a deterministic interleaving: an engine reads the
// tuple list and starts converting, a concurrent SortStable permutes the
// list and invalidates the cache, and the engine then stores its pre-sort
// image. The row count is unchanged, so a staleness check based on it
// accepts the stale image and serves pre-sort order to every later query.
// The cache must reject the late store instead.
func TestColumnarImageStaleAfterSort(t *testing.T) {
	r := twoRowRelation(t)

	// Engine: observes the pre-sort tuple list and begins converting.
	v := r.ColumnarVersion()
	staleImg := imageOf(r.Tuples())

	// Concurrent writer: permutes the list, invalidating the cache.
	if err := r.SortStable(OrderSpec{Key("K")}); err != nil {
		t.Fatal(err)
	}

	// Engine: finishes and stores the image built from the pre-sort list.
	r.SetColumnarImage(staleImg, v)

	if got := r.ColumnarImage(); got != nil {
		t.Fatalf("cache served an image stored against the pre-sort list: %v", got)
	}
}

// TestColumnarImageVersionMonotonic checks that the version counter never
// re-admits an image across a mutate-and-restore cycle: sorting back to the
// original order must still reject an image captured before the first sort
// (the rows check cannot distinguish the two states; a monotonic counter
// can).
func TestColumnarImageVersionMonotonic(t *testing.T) {
	r := twoRowRelation(t)
	v := r.ColumnarVersion()

	if err := r.SortStable(OrderSpec{Key("K")}); err != nil {
		t.Fatal(err)
	}
	if err := r.SortStable(OrderSpec{KeyDesc("K")}); err != nil {
		t.Fatal(err)
	}

	r.SetColumnarImage(tag("image-of-the-original-list"), v)
	if got := r.ColumnarImage(); got != nil {
		t.Fatalf("cache re-admitted an image from before two sorts: %v", got)
	}

	// A store made against the current version is accepted…
	v2 := r.ColumnarVersion()
	r.SetColumnarImage(tag("fresh"), v2)
	if got := r.ColumnarImage(); got != tag("fresh") {
		t.Fatalf("cache rejected a fresh image: %v", got)
	}
	// …and dropped by the next mutation.
	r.Append(Tuple{value.Int(3)})
	if got := r.ColumnarImage(); got != nil {
		t.Fatalf("cache survived Append: %v", got)
	}
}

// TestColumnarImageConcurrentSortAndStore stresses the cache under the race
// detector: builders repeatedly capture a version, snapshot the first tuple,
// and store an image; a writer flips the sort order between rounds. At every
// point a served image must have been stored at the relation's then-current
// version, so after the writer's final sort the cache can only hold an image
// stored after it.
func TestColumnarImageConcurrentSortAndStore(t *testing.T) {
	r := twoRowRelation(t)
	asc := OrderSpec{Key("K")}
	desc := OrderSpec{KeyDesc("K")}

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
				v := r.ColumnarVersion()
				r.SetColumnarImage(tag(strconv.FormatUint(v, 10)), v)
				if got := r.ColumnarImage(); got != nil {
					// A served image must carry the version it was stored
					// at; the load path guarantees it matches the current
					// version at the moment of the check.
					if _, ok := got.(tag); !ok {
						t.Errorf("cache holds a foreign image: %v", got)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		spec := asc
		if i%2 == 1 {
			spec = desc
		}
		if err := r.SortStable(spec); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()

	// Quiesced: one final mutation, then no builder runs again — the cache
	// must be empty, not holding any image stored against an older list.
	if err := r.SortStable(asc); err != nil {
		t.Fatal(err)
	}
	if got := r.ColumnarImage(); got != nil {
		t.Fatalf("cache holds an image from before the final sort: %v", got)
	}
}

// tag is a Columnar stand-in for the cache tests, which only check which
// image the cache serves.
type tag string

func (tag) Rows() int                       { return 0 }
func (tag) Cell(int, int) value.Value       { return value.Value{} }
func (tag) AppendTuples(ts []Tuple) []Tuple { return ts }
func (g tag) Gather([]int) Columnar         { return g }

// rowImage is a Columnar over a tuple list that counts its tuple
// derivations.
type rowImage struct {
	ts      []Tuple
	derived *atomic.Int32
}

func imageOf(ts []Tuple) *rowImage {
	return &rowImage{ts: append([]Tuple(nil), ts...), derived: new(atomic.Int32)}
}

func (m *rowImage) Rows() int                 { return len(m.ts) }
func (m *rowImage) Cell(i, c int) value.Value { return m.ts[i][c] }

func (m *rowImage) AppendTuples(ts []Tuple) []Tuple {
	m.derived.Add(1)
	return append(ts, m.ts...)
}

func (m *rowImage) Gather(idx []int) Columnar {
	g := &rowImage{derived: m.derived}
	for _, i := range idx {
		g.ts = append(g.ts, m.ts[i])
	}
	return g
}

func columnarRelation(n int) (*Relation, *rowImage) {
	s := schema.MustNew(schema.Attr("K", value.KindInt), schema.Attr("S", value.KindString))
	var ts []Tuple
	for i := 0; i < n; i++ {
		ts = append(ts, Tuple{value.Int(int64(n - i)), value.String_(strconv.Itoa(i))})
	}
	img := imageOf(ts)
	return FromColumnar(s, img), img
}

// TestFromColumnarLenAndCell: a columnar-primary relation answers Len and
// Cell from its columns and derives no tuples until Tuples or At asks.
func TestFromColumnarLenAndCell(t *testing.T) {
	r, img := columnarRelation(5)
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}
	for i := 0; i < r.Len(); i++ {
		if got := r.Cell(i, 1).AsString(); got != strconv.Itoa(i) {
			t.Errorf("Cell(%d, 1) = %q", i, got)
		}
	}
	if r.ColumnarImage() != Columnar(img) {
		t.Error("the primary columns are not the cached columnar image")
	}
	if n := img.derived.Load(); n != 0 || r.tuples != nil {
		t.Fatalf("Len/Cell derived tuples (%d derivations)", n)
	}
	if got := r.At(2); !got.Equal(img.ts[2]) {
		t.Errorf("At(2) = %v, want %v", got, img.ts[2])
	}
	r.Tuples()
	if n := img.derived.Load(); n != 1 {
		t.Errorf("%d derivations after At and Tuples, want 1", n)
	}
}

// TestFromColumnarConcurrentTuples: concurrent first readers of a
// columnar-primary relation derive its tuples exactly once and all see the
// same list (run under -race).
func TestFromColumnarConcurrentTuples(t *testing.T) {
	r, img := columnarRelation(300)
	const readers = 8
	got := make([][]Tuple, readers)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = r.Tuples()
			_ = r.Len()
			_ = r.Cell(w, 0)
		}(w)
	}
	wg.Wait()
	if n := img.derived.Load(); n != 1 {
		t.Fatalf("%d derivations by %d readers, want 1", n, readers)
	}
	for w := range got {
		if len(got[w]) != 300 || &got[w][0] != &got[0][0] {
			t.Fatalf("reader %d saw a different list", w)
		}
	}
}

// TestFromColumnarMutationDropsColumns: Append and SortStable turn a
// columnar-primary relation into a tuple list — the columns and the cached
// image drop and the version advances — and keep every row.
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
		v := r.ColumnarVersion()
		if err := mutate.f(r); err != nil {
			t.Fatal(err)
		}
		if r.cols != nil || r.ColumnarImage() != nil {
			t.Errorf("%s kept the columns", mutate.name)
		}
		if r.ColumnarVersion() == v {
			t.Errorf("%s did not bump the version", mutate.name)
		}
		if r.Len() != len(mutate.want) {
			t.Fatalf("%s: Len = %d, want %d", mutate.name, r.Len(), len(mutate.want))
		}
		for i, k := range mutate.want {
			if got := r.Cell(i, 0).AsInt(); got != k {
				t.Errorf("%s: row %d key %d, want %d", mutate.name, i, got, k)
			}
		}
	}
}

// TestPermutedTuples: Permuted gathers a tuple list by index and a
// columnar-primary list through its columns, building no tuple.
func TestPermutedTuples(t *testing.T) {
	col, img := columnarRelation(4)
	list := FromTuplesTrusted(col.Schema(), img.ts)
	list.SetOrder(OrderSpec{Key("K")})
	idx := []int{2, 0, 3, 1}
	for _, r := range []*Relation{list, col} {
		p := r.Permuted(idx)
		if !p.Order().Empty() {
			t.Errorf("Permuted kept order %s", p.Order())
		}
		for k, i := range idx {
			if !p.At(k).Equal(img.ts[i]) {
				t.Errorf("row %d = %v, want %v", k, p.At(k), img.ts[i])
			}
		}
	}
	if n := img.derived.Load(); n != 1 {
		t.Errorf("%d derivations, want 1 (the permuted list's own)", n)
	}
}

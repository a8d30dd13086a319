package exec

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tqp/internal/column"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// item is one element of a merge test's streams: its stream, its position
// in the stream and its sequence key.
type item struct{ stream, pos, seq int }

// naiveMerge is the stable merge the heap must reproduce: every item of
// every stream, stably sorted by (sequence key, stream index).
func naiveMerge(streams [][]int) []item {
	var all []item
	for p, s := range streams {
		for i, q := range s {
			all = append(all, item{p, i, q})
		}
	}
	slices.SortStableFunc(all, func(a, b item) int {
		if c := cmp.Compare(a.seq, b.seq); c != 0 {
			return c
		}
		return cmp.Compare(a.stream, b.stream)
	})
	return all
}

// randomStreams returns n streams of non-decreasing sequence keys drawn
// from a small range, so equal keys meet across streams; some are empty.
func randomStreams(rng *rand.Rand, n int) [][]int {
	streams := make([][]int, n)
	for p := range streams {
		if rng.Intn(4) == 0 {
			continue
		}
		s := make([]int, rng.Intn(12))
		for i := range s {
			s[i] = rng.Intn(10)
		}
		slices.Sort(s)
		streams[p] = s
	}
	return streams
}

// TestMergeHeapMatchesStableMerge checks the one merge heap, through the
// gather's mergeBySeq, against a naive stable merge: equal sequence keys
// across streams go to the lower stream index, at 0, 1, mergeStack and
// mergeStack+1 streams, empty streams included. Up to mergeStack streams
// the merge allocates nothing — the streaming group operators gather once
// per slice and rely on it.
func TestMergeHeapMatchesStableMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, mergeStack, mergeStack + 1} {
		for trial := 0; trial < 50; trial++ {
			streams := randomStreams(rng, n)
			if trial == 0 && n > 1 {
				// Every head equal: the stream index alone decides.
				for p := range streams {
					streams[p] = []int{3, 3}
				}
			}
			var got []item
			mergeBySeq(n,
				func(p int) int { return len(streams[p]) },
				func(p, i int) int { return streams[p][i] },
				func(p, lo, hi int) {
					if lo >= hi {
						t.Fatalf("%d streams: empty range [%d, %d) of stream %d", n, lo, hi, p)
					}
					for i := lo; i < hi; i++ {
						got = append(got, item{p, i, streams[p][i]})
					}
				})
			if want := naiveMerge(streams); !slices.Equal(got, want) {
				t.Fatalf("%d streams %v:\nmerged %v\nstable %v", n, streams, got, want)
			}
		}
	}

	if raceEnabled {
		return // the race detector's instrumentation allocates
	}
	for _, n := range []int{1, mergeStack} {
		streams := randomStreams(rng, n)
		streams[0] = []int{1, 2, 3}
		rows := 0
		size := func(p int) int { return len(streams[p]) }
		seq := func(p, i int) int { return streams[p][i] }
		emit := func(p, lo, hi int) { rows += hi - lo }
		if allocs := testing.AllocsPerRun(20, func() { mergeBySeq(n, size, seq, emit) }); allocs != 0 {
			t.Fatalf("merging %d streams allocated %v times per run", n, allocs)
		}
	}
}

// TestMergePartsTies pins MergeParts on parts whose heads tie. Sorted parts
// merge by (order, sequence key): rows equal on the order key interleave by
// sequence key across parts. Grouped parts move whole blocks of
// order-equal rows, a block tying with another part's going first from the
// lower part index. One part arrives as a selection view.
func TestMergePartsTies(t *testing.T) {
	s := schema.MustNew(schema.Attr("K", value.KindInt), schema.Attr("V", value.KindString))
	order := relation.OrderSpec{relation.Key("K")}
	// row is one input row: its key, its label and (sorted parts) its
	// sequence key.
	type row struct {
		k   int64
		v   string
		seq int
	}
	toParts := func(byPart [][]row, sorted bool) []TaggedRows {
		parts := make([]TaggedRows, len(byPart))
		for p, rs := range byPart {
			b := column.NewBatch(s, len(rs)+1)
			// A leading row the selection skips makes part 1 a view.
			if p == 1 {
				b.Cols[0].Append(value.Int(-1))
				b.Cols[1].Append(value.String_("skipped"))
				b.N++
			}
			var seqs []int
			for _, r := range rs {
				b.Cols[0].Append(value.Int(r.k))
				b.Cols[1].Append(value.String_(r.v))
				b.N++
				seqs = append(seqs, r.seq)
			}
			if p == 1 {
				sel := make([]int, 0, len(rs))
				for i := 1; i < b.N; i++ {
					sel = append(sel, i)
				}
				b = b.WithSel(sel)
			}
			if !sorted {
				seqs = nil
			}
			parts[p] = TaggedRows{Batch: b, Seqs: seqs}
		}
		return parts
	}
	labels := func(b *column.Batch) []string {
		var out []string
		for k := 0; k < b.Rows(); k++ {
			out = append(out, b.Cols[1].At(b.RowIndex(k)).AsString())
		}
		return out
	}

	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		nParts := 3 + rng.Intn(3)

		// Sorted: sequence keys are a permutation of the stored positions,
		// and each part is sorted by (K, sequence key).
		byPart := make([][]row, nParts)
		var all []row
		total := 4 + rng.Intn(30)
		for i, q := range rng.Perm(total) {
			p := i % nParts
			r := row{k: int64(rng.Intn(3)), v: fmt.Sprintf("r%d", q), seq: q}
			if trial == 0 {
				r.k = 1 // every head ties
			}
			byPart[p] = append(byPart[p], r)
			all = append(all, r)
		}
		byKeySeq := func(a, b row) int {
			if c := cmp.Compare(a.k, b.k); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		}
		for _, rs := range byPart {
			slices.SortFunc(rs, byKeySeq)
		}
		slices.SortFunc(all, byKeySeq)
		var want []string
		for _, r := range all {
			want = append(want, r.v)
		}
		if got := labels(MergeParts(s, order, false, toParts(byPart, true))); !slices.Equal(got, want) {
			t.Fatalf("trial %d sorted: merged %v, want %v", trial, got, want)
		}

		// Grouped: each part is blocks of rows equal on K, the blocks'
		// keys strictly ascending within a part and shared across parts.
		byPart = make([][]row, nParts)
		type block struct {
			k    int64
			part int
			rows []string
		}
		var blocks []block
		for p := range byPart {
			for k := int64(0); k < 4; k++ {
				if trial > 0 && rng.Intn(3) == 0 {
					continue
				}
				bl := block{k: k, part: p}
				for i := 0; i < 1+rng.Intn(3); i++ {
					v := fmt.Sprintf("p%dk%di%d", p, k, i)
					byPart[p] = append(byPart[p], row{k: k, v: v})
					bl.rows = append(bl.rows, v)
				}
				blocks = append(blocks, bl)
			}
		}
		slices.SortStableFunc(blocks, func(a, b block) int {
			if c := cmp.Compare(a.k, b.k); c != 0 {
				return c
			}
			return cmp.Compare(a.part, b.part)
		})
		want = want[:0]
		for _, bl := range blocks {
			want = append(want, bl.rows...)
		}
		if got := labels(MergeParts(s, order, true, toParts(byPart, false))); !slices.Equal(got, want) {
			t.Fatalf("trial %d grouped: merged %v, want %v", trial, got, want)
		}
	}
}

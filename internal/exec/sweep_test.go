package exec

import (
	"math/rand"
	"slices"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/column"
	"tqp/internal/eval"
	"tqp/internal/period"
	"tqp/internal/physical"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// TestSweepRanksMatchReference ties the rank step to the sorted distinct
// endpoints it replaces and the bodies that read it to internal/eval: on
// random groups drawn from a few chronons — so endpoints tie across the
// two sides and a period starts where another ends — with empty periods,
// one-row groups and, every fourth seed, chronons at the bounds of the
// time domain (which the sort takes as pairs, not packed words), the
// timeline's ends must be period.Endpoints of the group, every non-empty
// period's ranks must name its own start and end, and \ᵀ, rdupᵀ, ∪ᵀ and
// 𝒢ᵀ (with coalᵀ) must reproduce the reference's lists. A vacuity guard
// counts each shape the groups hit.
func TestSweepRanksMatchReference(t *testing.T) {
	var ties, touches, empties, singles, wide int
	var s sweep
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		palette := []period.Chronon{0, 1, 2, 3, 5, 8}
		if seed%4 == 0 {
			palette = []period.Chronon{period.Beginning, period.Beginning + 1, -1, 0, period.Forever - 1, period.Forever}
		}
		gen := func(n int) []period.Period {
			ps := make([]period.Period, n)
			for i := range ps {
				a, b := palette[rng.Intn(len(palette))], palette[rng.Intn(len(palette))]
				if rng.Intn(6) > 0 {
					a, b = min(a, b), max(a, b)
				}
				ps[i] = period.Period{Start: a, End: b}
			}
			return ps
		}
		rows := 1 + rng.Intn(6)
		if seed%5 == 0 {
			rows = 1
		}
		g := spanGroup{gen(rows), gen(rng.Intn(6))}

		s.ps[0], s.ps[1] = g.l, g.r
		m := s.timeline()
		want := period.Endpoints(append(slices.Clone(g.l), g.r...))
		if !slices.Equal(s.ends, want) || m != max(len(want)-1, 0) {
			t.Fatalf("seed %d: timeline ends %v (%d intervals), endpoints %v", seed, s.ends, m, want)
		}
		for side, ps := range [][]period.Period{g.l, g.r} {
			for j, p := range ps {
				if p.Empty() {
					continue
				}
				if lo, hi := s.span(side, j); s.ends[lo] != p.Start || s.ends[hi] != p.End {
					t.Fatalf("seed %d: side %d period %v ranked [%d, %d) over %v", seed, side, p, lo, hi, s.ends)
				}
			}
		}
		wide += boolCount(spansDomain(append(slices.Clone(g.l), g.r...)))
		ties += boolCount(sharesEndpoint(g.l, g.r))
		touches += boolCount(touching(append(slices.Clone(g.l), g.r...)))
		empties += boolCount(slices.ContainsFunc(append(slices.Clone(g.l), g.r...), period.Period.Empty))
		singles += boolCount(len(g.l) == 1)

		spanKernelsAgainstReference(t, g)
		spanKernelsAgainstReference(t, g, spanGroup{gen(1 + rng.Intn(4)), gen(rng.Intn(4))}, spanGroup{l: gen(1)})
	}
	t.Logf("groups with a cross-side endpoint tie %d, start = another's end %d, an empty period %d, one left row %d, wide %d",
		ties, touches, empties, singles, wide)
	if ties < 150 || touches < 150 || empties < 150 || singles < 80 || wide < 40 {
		t.Fatalf("vacuous: ties %d, touches %d, empties %d, one-row groups %d, wide timelines %d", ties, touches, empties, singles, wide)
	}
}

func boolCount(b bool) int {
	if b {
		return 1
	}
	return 0
}

// spansDomain reports that at least two periods are loaded and the
// non-empty ones reach from next to Beginning to next to Forever: too far
// for the sort to pack a chronon's offset and its slot into one word.
func spansDomain(ps []period.Period) bool {
	lo, hi := period.Forever, period.Beginning
	for _, p := range ps {
		if !p.Empty() {
			lo, hi = min(lo, p.Start), max(hi, p.End)
		}
	}
	return len(ps) >= 2 && lo <= period.Beginning+1 && hi >= period.Forever-1
}

// sharesEndpoint reports that a non-empty period of l and one of r share
// an endpoint.
func sharesEndpoint(l, r []period.Period) bool {
	for _, a := range l {
		for _, b := range r {
			if !a.Empty() && !b.Empty() && (a.Start == b.Start || a.Start == b.End || a.End == b.Start || a.End == b.End) {
				return true
			}
		}
	}
	return false
}

// touching reports that a non-empty period starts where another ends.
func touching(ps []period.Period) bool {
	for i, a := range ps {
		for j, b := range ps {
			if i != j && !a.Empty() && !b.Empty() && a.Start == b.End {
				return true
			}
		}
	}
	return false
}

// TestGroupCutMatchesReference drives rdupᵀ and coalᵀ's group-at-a-time
// route (groupCutIter) over hand-cut batch streams of one sorted list and
// checks each against internal/eval's list: one dense batch, one selection
// view, and streams whose cuts make a group straddle two batches and
// another three, with one group larger than vecBatchRows and batches that
// arrive as selection views out of physical order, as offset range views
// and dense.
func TestGroupCutMatchesReference(t *testing.T) {
	s := schema.MustNew(
		schema.Attr("V", value.KindInt),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime))
	rng := rand.New(rand.NewSource(7))
	sizes := []int{3, 1, 5, vecBatchRows + 300, 2, 7, 1, 4, 40, 6, 1, 9}
	var ts []relation.Tuple
	var firsts []int // each group's first list position
	for g, n := range sizes {
		firsts = append(firsts, len(ts))
		for range n {
			start := period.Chronon(rng.Intn(12))
			ts = append(ts, relation.Tuple{value.Int(int64(g)), value.Time(start), value.Time(start + period.Chronon(rng.Intn(5)))})
		}
	}
	whole := relation.FromTuplesTrusted(s, ts)
	src := eval.MapSource{"L": whole}
	l := algebra.NewRel("L", s, algebra.BaseInfo{})
	n := len(ts)
	// reversed holds the list in reverse physical order, so a view of it
	// presents the list through a descending selection.
	backward := slices.Clone(ts)
	slices.Reverse(backward)
	reversed := batchOfTuples(s, backward)
	view := func(lo, hi int) *column.Batch {
		sel := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			sel = append(sel, n-1-i)
		}
		return reversed.WithSel(sel)
	}
	dense := whole.Columns()
	big := firsts[3]
	streams := map[string][]*column.Batch{
		"one dense batch": {dense},
		"one view":        {view(0, n)},
		// Group 3 (larger than vecBatchRows) straddles three batches, group
		// 8 two, and the batches mix the three forms.
		"straddling": {
			view(0, big+10),
			dense.RangeView(big+10, big+600),
			view(big+600, firsts[8]+20),
			dense.RangeView(firsts[8]+20, firsts[9]+1),
			view(firsts[9]+1, n),
		},
		// Every batch one row: each multi-row group straddles.
		"row at a time": func() []*column.Batch {
			var bs []*column.Batch
			for i := range firsts[4] + 40 {
				bs = append(bs, view(i, i+1))
			}
			return append(bs, dense.RangeView(firsts[4]+40, n))
		}(),
	}
	// spans counts, per group, the batches of a stream holding its rows.
	spans := func(bs []*column.Batch) []int {
		out := make([]int, len(sizes))
		for g := range sizes {
			lo, hi, pos := firsts[g], firsts[g]+sizes[g], 0
			for _, b := range bs {
				if pos < hi && lo < pos+b.Rows() {
					out[g]++
				}
				pos += b.Rows()
			}
		}
		return out
	}
	if got := spans(streams["straddling"]); got[3] != 3 || got[8] != 2 {
		t.Fatalf("the straddling stream spreads the groups over %v batches: want group 3 over 3, group 8 over 2", got)
	}
	vidx := physical.ValueIdx(s)
	t1, t2 := s.TimeIndices()
	for name, bs := range streams {
		for _, op := range []struct {
			name string
			node algebra.Node
			body partBody
		}{
			{"rdupT", algebra.NewTRdup(l), rdupTBody(vidx, t1, t2, true)},
			{"coalT", algebra.NewCoal(l), coalTBody(vidx, t1, t2, true)},
		} {
			want, err := eval.New(src).Eval(op.node)
			if err != nil {
				t.Fatal(err)
			}
			in := &lazyBatchesIter{compute: func() ([]*column.Batch, error) { return bs, nil }}
			g := &groupCutIter{in: in, inSch: s, out: s, idx: vidx, body: op.body}
			var got []relation.Tuple
			for {
				b, err := g.nextBatch()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
				for k := range b.Rows() {
					got = append(got, rowOf(b, b.RowIndex(k)))
				}
			}
			if len(got) != want.Len() {
				t.Fatalf("%s over %s: %d rows, reference %d", op.name, name, len(got), want.Len())
			}
			for k := range got {
				if !got[k].Equal(want.At(k)) {
					t.Fatalf("%s over %s: row %d is %v, reference %v", op.name, name, k, got[k], want.At(k))
				}
			}
		}
	}
}

// TestPresentedViewKeepsKeysAscending pins the sequence keys of a
// partition presented in place: over a selection view out of physical
// order, ∪ and ∪ᵀ — which emit both sides — must still emit every stretch
// under non-decreasing keys, the order the gather merges by, and the
// one-partition route must give their lists.
func TestPresentedViewKeepsKeysAscending(t *testing.T) {
	s := schema.MustNew(
		schema.Attr("V", value.KindInt),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime))
	rng := rand.New(rand.NewSource(3))
	var ts []relation.Tuple
	for range 300 {
		start := period.Chronon(rng.Intn(20))
		ts = append(ts, relation.Tuple{value.Int(int64(rng.Intn(9))), value.Time(start), value.Time(start + period.Chronon(1+rng.Intn(6)))})
	}
	b := batchOfTuples(s, ts)
	perm := rng.Perm(len(ts))
	lv, rv := b.WithSel(perm[:200]), b.WithSel(perm[150:])
	vidx := physical.ValueIdx(s)
	t1, t2 := s.TimeIndices()
	list := func(v *column.Batch) *relation.Relation {
		var out []relation.Tuple
		for k := range v.Rows() {
			out = append(out, rowOf(v, v.RowIndex(k)))
		}
		return relation.FromTuplesTrusted(s, out)
	}
	src := eval.MapSource{"L": list(lv), "R": list(rv)}
	l, r := algebra.NewRel("L", s, algebra.BaseInfo{}), algebra.NewRel("R", s, algebra.BaseInfo{})
	for _, op := range []struct {
		name string
		node algebra.Node
		body partBody
	}{
		{"∪", algebra.NewUnion(l, r), unionBody([]int{0, 1, 2})},
		{"∪ᵀ", algebra.NewTUnion(l, r), tunionBody(vidx, t1, t2)},
	} {
		sc := getScratch()
		ems, err := op.body(sc.whole(0, lv), sc.whole(1, rv))
		if err != nil {
			t.Fatal(err)
		}
		for x, m := range ems {
			for k := 1; k < len(m.rows); k++ {
				if m.seq(k) < m.seq(k-1) {
					t.Fatalf("%s: stretch %d emits key %d after %d", op.name, x, m.seq(k), m.seq(k-1))
				}
			}
		}
		want, err := eval.New(src).Eval(op.node)
		if err != nil {
			t.Fatal(err)
		}
		var got []relation.Tuple
		for _, ob := range gather(nil, s, ems) {
			for k := range ob.Rows() {
				got = append(got, rowOf(ob, ob.RowIndex(k)))
			}
		}
		sc.release()
		if len(got) != want.Len() {
			t.Fatalf("%s: %d rows, reference %d", op.name, len(got), want.Len())
		}
		for k := range got {
			if !got[k].Equal(want.At(k)) {
				t.Fatalf("%s: row %d is %v, reference %v", op.name, k, got[k], want.At(k))
			}
		}
	}
}

package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/column"
	"tqp/internal/datagen"
	"tqp/internal/dbms"
	"tqp/internal/eval"
	"tqp/internal/expr"
	"tqp/internal/period"
	"tqp/internal/physical"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// TestColvecRoundTrip checks that every value kind survives the typed
// column storage bit-for-bit: at(i) must reconstruct a value that is Equal
// to the appended one and hashes to the same bits.
func TestColvecRoundTrip(t *testing.T) {
	cases := []struct {
		kind value.Kind
		vals []value.Value
	}{
		{value.KindInt, []value.Value{value.Int(0), value.Int(-7), value.Int(1 << 62), value.Int(math.MinInt64)}},
		{value.KindBool, []value.Value{value.Bool(true), value.Bool(false)}},
		{value.KindTime, []value.Value{value.Time(0), value.Time(42), value.Time(period.NowMarker), value.Time(period.Beginning)}},
		{value.KindFloat, []value.Value{value.Float(0), value.Float(-1.5), value.Float(math.NaN()), value.Float(math.Inf(1))}},
		{value.KindString, []value.Value{value.String_(""), value.String_("a"), value.String_("it's")}},
	}
	for _, tc := range cases {
		c := column.NewVec(tc.kind, 0)
		for _, v := range tc.vals {
			c.Append(v)
		}
		if c.Kind != tc.kind {
			t.Fatalf("kind %v: column demoted to %v on same-kind appends", tc.kind, c.Kind)
		}
		if c.Len() != len(tc.vals) {
			t.Fatalf("kind %v: length %d, want %d", tc.kind, c.Len(), len(tc.vals))
		}
		for i, v := range tc.vals {
			got := c.At(i)
			if !got.Equal(v) || got.Kind() != v.Kind() {
				t.Fatalf("kind %v: at(%d) = %v (%v), want %v", tc.kind, i, got, got.Kind(), v)
			}
			if got.HashInto(value.HashSeed()) != v.HashInto(value.HashSeed()) {
				t.Fatalf("kind %v: at(%d) hashes differently from the appended value", tc.kind, i)
			}
			if !c.EqualAt(i, &c, i) {
				t.Fatalf("kind %v: equalAt(%d,%d) false on the same slot", tc.kind, i, i)
			}
		}
	}
}

// TestColvecKindMixed checks the demotion escape hatch: a column fed a
// foreign kind falls back to boxed storage without losing the earlier
// typed values — including cross-kind numeric equality semantics.
func TestColvecKindMixed(t *testing.T) {
	c := column.NewVec(value.KindInt, 0)
	c.Append(value.Int(3))
	c.Append(value.Float(3.5)) // demotes
	c.Append(value.String_("x"))
	if c.Kind != value.KindInvalid {
		t.Fatalf("mixed column kept kind %v, want boxed fallback", c.Kind)
	}
	want := []value.Value{value.Int(3), value.Float(3.5), value.String_("x")}
	for i, v := range want {
		if got := c.At(i); !got.Equal(v) || got.Kind() != v.Kind() {
			t.Fatalf("after demotion at(%d) = %v (%v), want %v", i, got, got.Kind(), v)
		}
	}
	// Cross-kind numeric equality must keep the canonical Compare result:
	// Int(3) == Float(3.0) even across differently-typed columns.
	f := column.NewVec(value.KindFloat, 0)
	f.Append(value.Float(3))
	if !c.EqualAt(0, &f, 0) {
		t.Fatal("Int(3) and Float(3.0) must compare equal across columns")
	}
	// NaN equals NaN under the canonical total order.
	n1 := column.NewVec(value.KindFloat, 0)
	n1.Append(value.Float(math.NaN()))
	if !n1.EqualAt(0, &n1, 0) {
		t.Fatal("NaN must equal NaN under the canonical order")
	}
}

// TestBatchSelectionCompact checks selection-vector semantics: a view
// presents exactly the selected rows in selection order, compaction
// resolves it into dense columns, and the underlying batch is untouched.
func TestBatchSelectionCompact(t *testing.T) {
	s := schema.MustNew(
		schema.Attr("K", value.KindInt),
		schema.Attr("S", value.KindString),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime))
	var tuples []relation.Tuple
	for i := 0; i < 6; i++ {
		tuples = append(tuples, relation.Tuple{
			value.Int(int64(i)), value.String_(string(rune('a' + i))),
			value.Time(period.Chronon(i)), value.Time(period.Chronon(i + 10)),
		})
	}
	b := batchOfTuples(s, tuples)
	if b.N != 6 || b.Rows() != 6 {
		t.Fatalf("batch rows = %d/%d, want 6/6", b.N, b.Rows())
	}
	v := b.WithSel([]int{4, 1, 3})
	if v.Rows() != 3 {
		t.Fatalf("view rows = %d, want 3", v.Rows())
	}
	for k, phys := range []int{4, 1, 3} {
		if got := v.RowIndex(k); got != phys {
			t.Fatalf("view rowIndex(%d) = %d, want %d", k, got, phys)
		}
		if !rowOf(v, v.RowIndex(k)).Equal(tuples[phys]) {
			t.Fatalf("view row %d differs from source tuple %d", k, phys)
		}
	}
	c := v.Compact()
	if c.Sel != nil || c.N != 3 {
		t.Fatalf("compacted batch n=%d sel=%v, want 3/nil", c.N, c.Sel)
	}
	for k, phys := range []int{4, 1, 3} {
		if !rowOf(c, k).Equal(tuples[phys]) {
			t.Fatalf("compacted row %d differs from source tuple %d", k, phys)
		}
	}
	// The shared base is untouched by the view and the compaction.
	if b.Sel != nil || b.N != 6 {
		t.Fatal("selection view mutated its base batch")
	}
	for i, tu := range tuples {
		if !rowOf(b, i).Equal(tu) {
			t.Fatalf("base batch row %d changed", i)
		}
	}
	// periodAt must read NOW-relative periods through the typed time plane.
	nb := batchOfTuples(s, []relation.Tuple{{
		value.Int(1), value.String_("now"), value.Time(5), value.Time(period.NowMarker),
	}})
	p := nb.PeriodAt(2, 3, 0)
	if p.Start != 5 || p.End != period.NowMarker || !p.IsNowRelative() {
		t.Fatalf("periodAt = %v, want [5, NOW)", p)
	}
}

// TestVecDrainOne checks the materialization helper: a multi-batch stream
// with selections compacts into one dense batch in presented order, and a
// single unselected batch passes through without copying.
func TestVecDrainOne(t *testing.T) {
	s := schema.MustNew(schema.Attr("K", value.KindInt))
	mk := func(vals ...int64) *column.Batch {
		ts := make([]relation.Tuple, len(vals))
		for i, v := range vals {
			ts[i] = relation.Tuple{value.Int(v)}
		}
		return batchOfTuples(s, ts)
	}
	b1 := mk(1, 2, 3).WithSel([]int{2, 0})
	b2 := mk(4, 5)
	out, err := vecDrainOne(&stubVecIter{batches: []*column.Batch{b1, b2}}, s)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{3, 1, 4, 5}
	if out.N != len(want) || out.Sel != nil {
		t.Fatalf("drained n=%d sel=%v, want %d/nil", out.N, out.Sel, len(want))
	}
	for i, w := range want {
		if got := out.Cols[0].At(i); got.AsInt() != w {
			t.Fatalf("drained row %d = %v, want %d", i, got, w)
		}
	}
	single := mk(7, 8)
	out, err = vecDrainOne(&stubVecIter{batches: []*column.Batch{single}}, s)
	if err != nil {
		t.Fatal(err)
	}
	if out != single {
		t.Fatal("a single unselected batch must pass through vecDrainOne without copying")
	}
}

type stubVecIter struct {
	batches []*column.Batch
	i       int
}

func (s *stubVecIter) nextBatch() (*column.Batch, error) {
	if s.i >= len(s.batches) {
		return nil, nil
	}
	b := s.batches[s.i]
	s.i++
	return b, nil
}

func (s *stubVecIter) close() error { return nil }

// TestVecGroupsMatchesReference drives random kind-mixed tuples through the
// group table and checks it against the definition it implements:
// group ids are dense in first-occurrence order, two rows share an id
// exactly when their tuples are EqualOn the key, and lookups find the group
// of the equal row or nothing.
func TestVecGroupsMatchesReference(t *testing.T) {
	s := schema.MustNew(
		schema.Attr("A", value.KindInt),
		schema.Attr("B", value.KindString),
		schema.Attr("C", value.KindFloat))
	rng := rand.New(rand.NewSource(7))
	var tuples []relation.Tuple
	for i := 0; i < 400; i++ {
		tuples = append(tuples, relation.Tuple{
			value.Int(int64(rng.Intn(5))),
			value.String_(string(rune('a' + rng.Intn(3)))),
			value.Float(float64(rng.Intn(3))),
		})
	}
	idx := []int{0, 1, 2}
	b := batchOfTuples(s, tuples)
	g := &groupTable{idx: idx}
	var reps []relation.Tuple // reference: first occurrence of each key
	id := make([]int32, 1)
	for i, tu := range tuples {
		want, wantFresh := len(reps), true
		for gid, rep := range reps {
			if rep.EqualOn(idx, tu) {
				want, wantFresh = gid, false
				break
			}
		}
		if wantFresh {
			reps = append(reps, tu)
		}
		before := g.size()
		g.add(b, []int{i}, id)
		if vid, vfresh := int(id[0]), g.size() > before; vid != want || vfresh != wantFresh {
			t.Fatalf("row %d: group table (%d,%v), reference (%d,%v)", i, vid, vfresh, want, wantFresh)
		}
	}
	if g.size() != len(reps) {
		t.Fatalf("group table holds %d groups, reference %d", g.size(), len(reps))
	}
	rows := identityIdx(len(tuples))
	ids := make([]int32, len(rows))
	g.lookup(b, rows, idx, make([]uint64, len(rows)), ids)
	for i, tu := range tuples {
		if gid := ids[i]; gid < 0 || !reps[gid].EqualOn(idx, tu) {
			t.Fatalf("row %d: lookup found group %d", i, gid)
		}
	}
	absent := batchOfTuples(s, []relation.Tuple{{value.Int(99), value.String_("a"), value.Float(0)}})
	g.lookup(absent, []int{0}, idx, make([]uint64, 1), id)
	if id[0] != -1 {
		t.Fatalf("lookup of an absent key found group %d", id[0])
	}
}

// spanGroup is one value-equivalence group's left and right periods.
type spanGroup struct{ l, r []period.Period }

// spanKernelsAgainstReference checks the temporal partition bodies — the
// multiplicity sweep of rdupᵀ, \ᵀ, ∪ᵀ and 𝒢ᵀ, and coalᵀ's merge — against
// the reference evaluator. Group g's periods become rows with value g+1,
// interleaved round-robin with the other groups' into one left and one
// right partition, so more than one group exercises the bodies' CSR
// grouping and per-row fragment offsets. The bodies' rdupᵀ, coalᵀ, \ᵀ and
// ∪ᵀ must reproduce internal/eval's lists exactly, fragment order included,
// and so must 𝒢ᵀ by value with COUNT(*) and SUM of a per-row column W —
// each row's list position, so the sum names the active set. A single
// group also runs the grouping bodies' hash-free contiguous path, and \ᵀ
// and ∪ᵀ run theirs over a second left, LS, holding the same rows group by
// group. Where every group's left periods are pairwise disjoint — the shape
// a snapshot-distinct left guarantees — \ᵀ's union subtraction must give
// the reference's lists over both lefts too, and the helper reports that it
// ran.
func spanKernelsAgainstReference(t *testing.T, groups ...spanGroup) (subtracted bool) {
	t.Helper()
	s := schema.MustNew(
		schema.Attr("V", value.KindInt),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime))
	sw := schema.MustNew(
		schema.Attr("V", value.KindInt),
		schema.Attr("W", value.KindInt),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime))
	rel := func(sch *schema.Schema, side func(spanGroup) []period.Period) *relation.Relation {
		var ts []relation.Tuple
		if side == nil { // LS: the left periods, group by group
			for g, grp := range groups {
				for _, p := range grp.l {
					ts = append(ts, relation.Tuple{value.Int(int64(g + 1)), value.Time(p.Start), value.Time(p.End)})
				}
			}
			return relation.FromTuplesTrusted(sch, ts)
		}
		for x := 0; ; x++ {
			more := false
			for g, grp := range groups {
				ps := side(grp)
				if x >= len(ps) {
					continue
				}
				more = true
				tu := relation.Tuple{value.Int(int64(g + 1)), value.Time(ps[x].Start), value.Time(ps[x].End)}
				if sch == sw {
					tu = relation.Tuple{tu[0], value.Int(int64(len(ts))), tu[1], tu[2]}
				}
				ts = append(ts, tu)
			}
			if !more {
				return relation.FromTuplesTrusted(sch, ts)
			}
		}
	}
	left := func(g spanGroup) []period.Period { return g.l }
	right := func(g spanGroup) []period.Period { return g.r }
	lrel, rrel, wrel, lsrel := rel(s, left), rel(s, right), rel(sw, left), rel(s, nil)
	src := eval.MapSource{"L": lrel, "R": rrel, "W": wrel, "LS": lsrel}
	l := algebra.NewRel("L", s, algebra.BaseInfo{})
	ls := algebra.NewRel("LS", s, algebra.BaseInfo{})
	r := algebra.NewRel("R", s, algebra.BaseInfo{})
	w := algebra.NewRel("W", sw, algebra.BaseInfo{})
	agg := algebra.NewTAggregate([]string{"V"}, []expr.Aggregate{
		{Func: expr.CountAll, As: "c"}, {Func: expr.Sum, Arg: "W", As: "s"}}, w)
	aggOut, err := agg.Schema()
	if err != nil {
		t.Fatal(err)
	}
	partOf := func(r *relation.Relation) part { return wholeBatch(batchOfTuples(r.Schema(), r.Tuples())) }
	lp, rp, wp, lsp := partOf(lrel), partOf(rrel), partOf(wrel), partOf(lsrel)
	vidx := physical.ValueIdx(s)
	t1, t2 := s.TimeIndices()
	check := func(name string, n algebra.Node, body partBody, lp, rp part) {
		want, err := eval.New(src).Eval(n)
		if err != nil {
			t.Fatalf("reference %s: %v", algebra.Canonical(n), err)
		}
		ems, err := body(lp, rp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got []relation.Tuple
		for _, b := range gather(nil, want.Schema(), ems) {
			for k := 0; k < b.Rows(); k++ {
				got = append(got, rowOf(b, b.RowIndex(k)))
			}
		}
		if len(got) != want.Len() {
			t.Fatalf("%s on %v: %d rows %v, reference %d\n%s", name, groups, len(got), got, want.Len(), want)
		}
		for k := range got {
			if !got[k].Equal(want.At(k)) {
				t.Fatalf("%s on %v: row %d is %v, reference %v", name, groups, k, got[k], want.At(k))
			}
		}
	}
	contiguous := []bool{false}
	if len(groups) == 1 {
		contiguous = append(contiguous, true)
	}
	for _, c := range contiguous {
		check("rdupT", algebra.NewTRdup(l), rdupTBody(vidx, t1, t2, c), lp, part{})
		check("coalT", algebra.NewCoal(l), coalTBody(vidx, t1, t2, c), lp, part{})
		check("aggrT", agg, tAggregateBody(agg, sw, []int{0}, c, aggOut), wp, part{})
	}
	check("diffT", algebra.NewTDiff(l, r), tdiffBody(vidx, t1, t2), lp, rp)
	check("unionT", algebra.NewTUnion(l, r), tunionBody(vidx, t1, t2), lp, rp)
	check("diffT over contiguous LS", algebra.NewTDiff(ls, r), sweepDiffBody(vidx, t1, t2, true), lsp, rp)
	check("unionT over contiguous LS", algebra.NewTUnion(ls, r), excessBody(vidx, t1, t2, true), lsp, rp)
	for _, g := range groups {
		if !pairwiseDisjoint(g.l) {
			return false
		}
	}
	check("diffT minus union", algebra.NewTDiff(l, r), minusUnionBody(vidx, t1, t2, false), lp, rp)
	check("diffT minus union over contiguous LS", algebra.NewTDiff(ls, r), minusUnionBody(vidx, t1, t2, true), lsp, rp)
	return true
}

// pairwiseDisjoint reports that no two non-empty periods of ps overlap: no
// snapshot holds two of them.
func pairwiseDisjoint(ps []period.Period) bool {
	for i, a := range ps {
		for _, b := range ps[:i] {
			if a.Overlaps(b) {
				return false
			}
		}
	}
	return true
}

// TestSpanKernelsMatchReference is the property test tying the temporal
// partition bodies to the reference evaluator on random period lists —
// empty, touching, nested, identical, sorted-disjoint and NOW-relative
// periods all occur — as a single group and as a partition of several
// groups, one only on the left and one only on the right. A vacuity guard
// counts the seeds on which \ᵀ's union subtraction ran.
func TestSpanKernelsMatchReference(t *testing.T) {
	subtracted := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gen := func(n int) []period.Period {
			ps := make([]period.Period, n)
			cur := period.Chronon(rng.Intn(4))
			for i := range ps {
				start := period.Chronon(rng.Intn(10))
				if seed%3 == 0 {
					// Sorted-disjoint shape: the kernels' one-pass fast paths.
					start = cur + period.Chronon(rng.Intn(2))
				}
				end := start + period.Chronon(rng.Intn(8))
				if rng.Intn(10) == 0 {
					end = period.NowMarker
				}
				ps[i] = period.Period{Start: start, End: end}
				if end != period.NowMarker {
					cur = end
				}
			}
			return ps
		}
		one := spanGroup{gen(rng.Intn(9)), gen(rng.Intn(6))}
		a := spanKernelsAgainstReference(t, one)
		b := spanKernelsAgainstReference(t, one, spanGroup{gen(rng.Intn(9)), gen(rng.Intn(6))},
			spanGroup{r: gen(1 + rng.Intn(5))}, spanGroup{l: gen(1 + rng.Intn(8))})
		subtracted += boolCount(a || b)
	}
	t.Logf("the union subtraction ran on %d of 300 seeds", subtracted)
	if subtracted < 50 {
		t.Fatalf("vacuous: the union subtraction ran on %d of 300 seeds, want ≥ 50", subtracted)
	}
}

// FuzzSpanKernels is the same property under native fuzzing: the bytes
// decode to two period lists (one header byte splits them, then a
// start/length byte pair per period; length 0 is an empty period, length 15
// one ending at NowMarker).
func FuzzSpanKernels(f *testing.F) {
	f.Add([]byte{})                             // empty group
	f.Add([]byte{2, 1, 2, 3, 2})                // touching [1,3) [3,5)
	f.Add([]byte{2, 0, 9, 2, 3, 1, 4})          // nested, right inside
	f.Add([]byte{3, 4, 2, 4, 2, 4, 2, 4, 2})    // identical on both sides
	f.Add([]byte{3, 0, 2, 3, 2, 7, 1, 1, 0})    // sorted-disjoint, empty right period
	f.Add([]byte{1, 5, 0, 5, 3})                // empty left period
	f.Add([]byte{4, 0, 6, 2, 6, 1, 1, 3, 3, 2}) // overlapping chain
	// A disjoint left, which \ᵀ's union subtraction also runs on, against
	// touching, nested and NOW-relative right periods.
	f.Add([]byte{3, 0, 3, 5, 2, 9, 4, 1, 2, 3, 2, 7, 1}) // right [1,3) [3,5) [7,8) touch and cross
	f.Add([]byte{2, 2, 6, 10, 3, 1, 9, 3, 2, 11, 1})     // right [3,5) nested in [1,10), [11,12) inside a left
	f.Add([]byte{3, 0, 4, 6, 0, 8, 3, 5, 15, 2, 1})      // right [5, NOW) over an empty left period
	f.Add([]byte{2, 4, 15, 0, 2, 1, 15, 3, 2, 20, 15})   // NOW-relative on both sides
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 33 {
			data = data[:33] // coalᵀ is O(g²) per group by design
		}
		var lps, rps []period.Period
		if len(data) > 0 {
			nl := int(data[0])
			for k := 1; k+1 < len(data); k += 2 {
				start := period.Chronon(data[k] % 32)
				p := period.Period{Start: start, End: start + period.Chronon(data[k+1]%16)}
				if data[k+1]%16 == 15 {
					p.End = period.NowMarker
				}
				if len(lps) < nl {
					lps = append(lps, p)
				} else {
					rps = append(rps, p)
				}
			}
		}
		spanKernelsAgainstReference(t, spanGroup{lps, rps})
	})
}

// TestVecPredCompiler checks the columnar predicate fast path against
// Pred.Holds over every comparison operator and the boolean connectives.
func TestVecPredCompiler(t *testing.T) {
	s := schema.MustNew(
		schema.Attr("A", value.KindInt),
		schema.Attr("B", value.KindFloat))
	var tuples []relation.Tuple
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		tuples = append(tuples, relation.Tuple{
			value.Int(int64(rng.Intn(7) - 3)),
			value.Float(float64(rng.Intn(7)) - 3.5),
		})
	}
	b := batchOfTuples(s, tuples)
	a, bcol := expr.Column("A"), expr.Column("B")
	zero := expr.Literal(value.Int(0))
	preds := []expr.Pred{
		expr.TruePred{},
		expr.Compare(expr.Eq, a, zero),
		expr.Compare(expr.Ne, a, zero),
		expr.Compare(expr.Lt, a, bcol), // cross-kind int vs float comparison
		expr.Compare(expr.Le, a, bcol),
		expr.Compare(expr.Gt, bcol, expr.Literal(value.Float(0.5))),
		expr.Compare(expr.Ge, a, expr.Literal(value.Int(-1))),
		expr.Neg(expr.Compare(expr.Eq, a, zero)),
		expr.Conj(expr.Compare(expr.Gt, a, zero), expr.Compare(expr.Lt, bcol, expr.Literal(value.Float(2)))),
		expr.Disj(expr.Compare(expr.Lt, a, zero), expr.Compare(expr.Gt, bcol, expr.Literal(value.Float(1)))),
	}
	for pi, p := range preds {
		fast := compileVecPred(p, s)
		if fast == nil {
			t.Fatalf("pred %d (%s): compiler refused a supported shape", pi, p)
		}
		for i, tu := range tuples {
			want, err := p.Holds(s, tu)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fast(b, i)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("pred %d (%s) row %d: fast %v ≠ Holds %v", pi, p, i, got, want)
			}
		}
	}
}

// rowOf materializes the physical row i of b.
func rowOf(b *column.Batch, i int) relation.Tuple {
	t := make(relation.Tuple, len(b.Cols))
	b.FillRow(t, i)
	return t
}

// TestBatchPermuted pins the DBMS's permutation over columns: for a dense
// and a selected batch of every boundary length, Permuted(idx) of the
// relation is a view over the batch's own planes, and its list equals the
// list that shuffling a clone of the tuples in place — the same seeded swap
// sequence — produces, whichever constructor built the relation.
func TestBatchPermuted(t *testing.T) {
	s := schema.MustNew(schema.Attr("K", value.KindInt), schema.Attr("S", value.KindString))
	for _, n := range []int{0, 1, 2, 255, 256, 257, 6000} {
		// dense presents n physical rows; selected presents n of 2n+1
		// physical rows, every other one from the end.
		var all []relation.Tuple
		for i := 0; i < 2*n+1; i++ {
			all = append(all, relation.Tuple{value.Int(int64(i)), value.String_(string(rune('a' + i%26)))})
		}
		full := batchOfTuples(s, all)
		sel := make([]int, n)
		selTuples := make([]relation.Tuple, n)
		for k := range sel {
			sel[k] = 2*n - 2*k
			selTuples[k] = all[sel[k]]
		}
		for _, c := range []struct {
			name string
			b    *column.Batch
			ts   []relation.Tuple
		}{
			{"dense", batchOfTuples(s, all[:n]), all[:n]},
			{"selected", full.WithSel(sel), selTuples},
		} {
			for _, seed := range []int64{1, 3} {
				idx := make([]int, n)
				for i := range idx {
					idx[i] = i
				}
				rand.New(rand.NewSource(seed+int64(n))).Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
				want := append([]relation.Tuple(nil), c.ts...)
				rand.New(rand.NewSource(seed+int64(n))).Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })

				col := relation.FromColumnar(s, c.b).Permuted(idx)
				img := col.Columns()
				if n > 0 && &img.Cols[0].Ints[0] != &c.b.Cols[0].Ints[0] {
					t.Fatalf("%s n=%d seed=%d: Permuted copied the columns", c.name, n, seed)
				}
				for k := 0; k < n; k++ {
					if i := img.RowIndex(k); !img.Cols[0].At(i).Equal(want[k][0]) || !img.Cols[1].At(i).Equal(want[k][1]) {
						t.Fatalf("%s n=%d seed=%d: row %d cells differ from the in-place shuffle", c.name, n, seed, k)
					}
				}
				list := relation.FromTuplesTrusted(s, c.ts).Permuted(idx)
				for _, got := range []*relation.Relation{col, list} {
					if got.Len() != n || !got.EqualAsList(relation.FromTuplesTrusted(s, want)) {
						t.Fatalf("%s n=%d seed=%d: Permuted differs from the in-place shuffle", c.name, n, seed)
					}
				}
			}
		}
	}
}

// TestBareScanAnswersInItsOwnForm: a DBMS subplan that is nothing but a
// scan answers over the base relation's own planes. The scan shares the
// base's batch and the DBMS's permutation selects from it, so the answer is
// a selection view: no row is copied, no tuple is built, and the list is
// the reference evaluator's.
func TestBareScanAnswersInItsOwnForm(t *testing.T) {
	db := datagen.EmployeeDB(datagen.EmployeeSpec{Employees: 30, SpellsPerEmp: 2, AssignmentsPerEmp: 2, Seed: 3})
	base, err := db.Resolve("EMPLOYEE")
	if err != nil {
		t.Fatal(err)
	}
	scan := db.MustNode("EMPLOYEE")
	res, err := dbms.New(db, 1, NewSpec(Config{})).Execute(scan)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Rel.Columns()
	if b.Sel == nil || &b.Cols[0].Strs[0] != &base.Columns().Cols[0].Strs[0] {
		t.Fatal("the bare scan's answer is not a selection view over the base relation's planes")
	}
	if !reflect.ValueOf(res.Rel).Elem().FieldByName("tuples").IsNil() {
		t.Error("the bare scan's answer built tuples")
	}
	want, err := dbms.New(db, 1, eval.Reference()).Execute(scan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != base.Len() || !res.Rel.EqualAsList(want.Rel) {
		t.Fatalf("the bare scan's answer differs from the reference's:\n%s", res.Rel)
	}
}

// TestDiskCatalogScansConvertNothing: a reopened disk catalog hands the
// engine relations over the batch its segments decode onto, so neither a
// bare scan, a pipeline over a scan nor a FOR PERIOD scan of one derives a
// tuple on the base relation (the catalog's statistics and the travel
// filter read the periods off the columns).
func TestDiskCatalogScansConvertNothing(t *testing.T) {
	dir := t.TempDir()
	disk, err := catalog.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	era := func(e int) [][]any {
		var rows [][]any
		for i := 0; i < 300; i++ {
			rows = append(rows, []any{fmt.Sprintf("e%03d", i%40), fmt.Sprintf("d%d", i%3), 100*e + i%90, 100*e + i%90 + 5})
		}
		return rows
	}
	if err := disk.AddDisk("EMPLOYEE", relation.MustFromRows(catalog.EmployeeSchema(), era(0)), algebra.BaseInfo{}); err != nil {
		t.Fatal(err)
	}
	if err := disk.AppendRows("EMPLOYEE", era(1)); err != nil {
		t.Fatal(err)
	}
	travel, err := disk.TravelNode("EMPLOYEE", &catalog.Travel{Kind: catalog.TravelPeriod, Start: 120, End: 150})
	if err != nil {
		t.Fatal(err)
	}
	scan := disk.MustNode("EMPLOYEE")
	late := expr.Compare(expr.Ge, expr.Column(schema.T1), expr.Literal(value.Int(40)))
	for _, c := range []struct {
		name string
		plan algebra.Node
	}{
		{"bare scan", scan},
		{"pipeline", algebra.NewSelect(late, scan)},
		{"for period", travel},
		{"pipeline for period", algebra.NewSelect(late, travel)},
	} {
		cold, err := catalog.OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		entry, err := cold.Entry("EMPLOYEE")
		if err != nil {
			t.Fatal(err)
		}
		e := New(cold)
		got, err := e.Eval(c.plan)
		if err != nil {
			t.Fatal(err)
		}
		// A relation's tuple view exists only once a reader derived it.
		if !reflect.ValueOf(entry.Rel).Elem().FieldByName("tuples").IsNil() {
			t.Errorf("%s: the scan derived the base relation's tuples", c.name)
		}
		want, err := eval.Reference().Instantiate(cold).Eval(c.plan)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() == 0 || !got.EqualAsList(want) {
			t.Errorf("%s: %d rows differ from the reference's %d", c.name, got.Len(), want.Len())
		}
	}
}

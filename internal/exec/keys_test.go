package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"tqp/internal/column"
	"tqp/internal/period"
	"tqp/internal/physical"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// hashFixture is a fixed batch with one column per plane kind — int, bool,
// time, float (NaN, integral, fractional), string — plus a string column
// demoted to boxed storage by one int among its values.
func hashFixture() (*column.Batch, []relation.Tuple) {
	s := schema.MustNew(
		schema.Attr("I", value.KindInt),
		schema.Attr("B", value.KindBool),
		schema.Attr("T", value.KindTime),
		schema.Attr("F", value.KindFloat),
		schema.Attr("S", value.KindString),
		schema.Attr("M", value.KindString))
	floats := []float64{math.NaN(), 1, 2.5, -0.0, 3e18, -7, math.Inf(1), 0.25, 1e300, 42, math.NaN(), -2.75}
	var ts []relation.Tuple
	for r := range floats {
		m := value.String_(fmt.Sprintf("m%d", r%4))
		if r == 5 {
			m = value.Int(1) // the foreign kind that demotes M's plane
		}
		ts = append(ts, relation.Tuple{
			value.Int(int64(r*r - 20)),
			value.Bool(r%3 == 0),
			value.Time(period.Chronon(r * 7)),
			value.Float(floats[r]),
			value.String_(fmt.Sprintf("k%02d", r%5)),
			m,
		})
	}
	b := column.NewBatch(s, len(ts))
	for _, t := range ts {
		for c, v := range t {
			b.Cols[c].Append(v)
		}
		b.N++
	}
	return b, ts
}

// rowHashRef is the per-row hash the engine used before hashRows: a fold
// of Vec.HashInto over the key columns of one row.
func rowHashRef(b *column.Batch, i int, idx []int) uint64 {
	h := value.HashSeed()
	for _, c := range idx {
		h = b.Cols[c].HashInto(i, h)
	}
	return h
}

// TestHashRowsMatchesHashOn pins the column-at-a-time hash to the canonical
// tuple hash on every plane kind, alone and combined, and to the per-row
// fold it replaced. Spill buckets and shard placement read these bits, so
// the bucket of every fixture row is pinned as a golden list too.
func TestHashRowsMatchesHashOn(t *testing.T) {
	b, ts := hashFixture()
	if b.Cols[5].Kind != value.KindInvalid {
		t.Fatalf("fixture column M should be demoted, has kind %v", b.Cols[5].Kind)
	}
	all := []int{0, 1, 2, 3, 4, 5}
	keys := [][]int{{0}, {1}, {2}, {3}, {4}, {5}, all, {5, 3, 0}, {}}
	rows := []int{11, 0, 3, 3, 7, 1, 10, 2, 4, 5, 6, 8, 9}
	out := make([]uint64, len(rows))
	for _, idx := range keys {
		column.HashRows(b, rows, idx, out)
		for k, i := range rows {
			if want := ts[i].HashOn(idx); out[k] != want {
				t.Errorf("key %v row %d: hashRows %#x, HashOn %#x", idx, i, out[k], want)
			}
			if ref := rowHashRef(b, i, idx); out[k] != ref {
				t.Errorf("key %v row %d: hashRows %#x, per-row fold %#x", idx, i, out[k], ref)
			}
		}
	}
	dense := seqRows(nil, 0, b.N)
	hs := make([]uint64, b.N)
	column.HashRows(b, dense, all, hs)
	var lvl0, lvl1 []int
	for _, h := range hs {
		lvl0, lvl1 = append(lvl0, spillBucket(h, 0)), append(lvl1, spillBucket(h, 1))
	}
	golden0 := []int{7, 3, 3, 4, 1, 7, 4, 2, 1, 0, 2, 0}
	golden1 := []int{7, 3, 5, 4, 5, 4, 3, 1, 1, 1, 2, 5}
	if !slices.Equal(lvl0, golden0) || !slices.Equal(lvl1, golden1) {
		t.Errorf("spill buckets moved:\nlevel 0 %v, golden %v\nlevel 1 %v, golden %v", lvl0, golden0, lvl1, golden1)
	}
}

// mixedKeyRows returns one demoted column holding distinct keys of mixed
// kinds — ints, fractional floats, strings — each appearing twice, once in
// ascending and once in descending order, interleaved, and every int key
// once more as the equal float. The
// reference ids are the naive first-occurrence ids under value.Equal.
func mixedKeyRows(distinct int) (*column.Batch, []value.Value, []int32) {
	s := schema.MustNew(schema.Attr("V", value.KindInt))
	key := func(k int) value.Value {
		switch k % 3 {
		case 0:
			return value.Int(int64(k))
		case 1:
			return value.Float(float64(k) + 0.5)
		default:
			return value.String_(fmt.Sprintf("s%d", k))
		}
	}
	var vals []value.Value
	for k := 0; k < distinct; k++ {
		vals = append(vals, key(k), key(distinct-1-k))
	}
	for k := 0; k < distinct; k += 3 {
		vals = append(vals, value.Float(float64(k))) // Equal to Int(k)
	}
	b := column.NewBatch(s, len(vals))
	for _, v := range vals {
		b.Cols[0].Append(v)
		b.N++
	}
	var reps []value.Value
	want := make([]int32, len(vals))
	for i, v := range vals {
		want[i] = -1
		for id, r := range reps {
			if r.Equal(v) {
				want[i] = int32(id)
				break
			}
		}
		if want[i] < 0 {
			want[i] = int32(len(reps))
			reps = append(reps, v)
		}
	}
	return b, vals, want
}

// TestGroupTableCollisionsAndGrowth drives the group table at sizes on both
// sides of every growth step, once with a constant hash vector — every key
// collides, so only the equality confirmation tells groups apart — and once
// with the canonical hashes. The ids must be the naive first-occurrence ids
// under value.Equal: distinct keys never merge, and Int(k) meets Float(k).
func TestGroupTableCollisionsAndGrowth(t *testing.T) {
	for _, distinct := range []int{1, 7, 8, 9, 16, 17, 32, 33, 64, 65, 128, 129, 257} {
		b, vals, want := mixedKeyRows(distinct)
		rows := seqRows(nil, 0, b.N)
		constant := make([]uint64, len(rows))
		for k := range constant {
			constant[k] = 0x5eed
		}
		for _, mode := range []string{"constant", "canonical"} {
			g := &groupTable{idx: []int{0}}
			ids := make([]int32, len(rows))
			// Two halves, so the table grows in the middle of a call and
			// between calls.
			half := len(rows) / 2
			for _, r := range [][2]int{{0, half}, {half, len(rows)}} {
				if mode == "constant" {
					g.addHashed(b, rows[r[0]:r[1]], constant[r[0]:r[1]], ids[r[0]:r[1]])
				} else {
					g.add(b, rows[r[0]:r[1]], ids[r[0]:r[1]])
				}
			}
			if !slices.Equal(ids, want) {
				t.Fatalf("%d keys, %s hashes: ids %v, want %v", distinct, mode, ids, want)
			}
			if g.size() != distinct {
				t.Fatalf("%d keys, %s hashes: %d groups", distinct, mode, g.size())
			}
			for i, v := range vals {
				if v.Kind() == value.KindFloat && v.AsFloat() == math.Trunc(v.AsFloat()) {
					if rb, ri := g.repOf(int(ids[i])); !rb.Cols[0].At(ri).Equal(v) {
						t.Fatalf("%d keys, %s hashes: %v grouped with %v", distinct, mode, v, rb.Cols[0].At(ri))
					}
				}
			}
			again := make([]int32, len(rows))
			if mode == "constant" {
				g.addHashed(b, rows, constant, again)
			} else {
				g.lookup(b, rows, []int{0}, make([]uint64, len(rows)), again)
			}
			if !slices.Equal(again, want) || g.size() != distinct {
				t.Fatalf("%d keys, %s hashes: a second pass found %v (%d groups)", distinct, mode, again, g.size())
			}
		}
	}
}

// stableRef sorts [0, n) stably under spec over the tuples — the definition
// sortRows implements with its row-index tie-break.
func stableRef(ts []relation.Tuple, s *schema.Schema, spec relation.OrderSpec) []int {
	idx := seqRows(nil, 0, len(ts))
	slices.SortStableFunc(idx, func(x, y int) int {
		for _, k := range spec {
			c := s.Index(k.Attr)
			r := ts[x][c].Compare(ts[y][c])
			if k.Dir == relation.Desc {
				r = -r
			}
			if r != 0 {
				return r
			}
		}
		return 0
	})
	return idx
}

// randomKeyBatch builds n random rows over small domains, so keys tie; with
// demote, one row stores a foreign kind in the string column and one in
// the int column, so those planes are boxed.
func randomKeyBatch(rng *rand.Rand, s *schema.Schema, n int, demote bool) (*column.Batch, []relation.Tuple) {
	ts := make([]relation.Tuple, n)
	for i := range ts {
		ts[i] = relation.Tuple{
			value.Int(int64(rng.Intn(6) - 3)),
			value.String_(string(rune('a' + rng.Intn(4)))),
			value.Float([]float64{math.NaN(), -1, 0, 0.5, 2}[rng.Intn(5)]),
			value.Time(period.Chronon(rng.Intn(5))),
			value.Bool(rng.Intn(2) == 0),
		}
	}
	if demote {
		ts[rng.Intn(n)][1] = value.Int(int64(rng.Intn(3)))
		ts[rng.Intn(n)][0] = value.Float(float64(rng.Intn(3)) - 0.5)
	}
	b := column.NewBatch(s, n)
	for _, t := range ts {
		for c, v := range t {
			b.Cols[c].Append(v)
		}
		b.N++
	}
	return b, ts
}

// TestSortRowsMatchesStableSort checks the comparator kernels against
// value.Compare: sortRows over random batches — mixed kinds, one and several
// keys, both directions, int and string planes demoted by one foreign-kind
// append — must equal the stable sort of the tuples, and the bound
// comparator across a typed and a demoted batch must order every pair as
// value.Compare does.
func TestSortRowsMatchesStableSort(t *testing.T) {
	s := schema.MustNew(
		schema.Attr("I", value.KindInt),
		schema.Attr("S", value.KindString),
		schema.Attr("F", value.KindFloat),
		schema.Attr("T", value.KindTime),
		schema.Attr("B", value.KindBool))
	names := s.Names()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(120)
		if trial == 0 {
			n = 2*sortRunSize + 100 // several runs: the W-way sort's merge
		}
		b, ts := randomKeyBatch(rng, s, n, trial%3 == 0)
		var spec relation.OrderSpec
		for _, c := range rng.Perm(len(names))[:1+rng.Intn(3)] {
			dir := relation.Asc
			if rng.Intn(2) == 0 {
				dir = relation.Desc
			}
			spec = append(spec, relation.OrderKey{Attr: names[c], Dir: dir})
		}
		cmp := compileVecCmp(s, spec)
		rows := seqRows(nil, 0, n)
		if n <= sortRunSize {
			sortRows(b, rows, cmp)
		} else {
			for lo := 0; lo < n; lo += sortRunSize {
				sortRows(b, rows[lo:min(lo+sortRunSize, n)], cmp)
			}
			rows = mergeSortedRuns(b, rows, cmp)
		}
		if want := stableRef(ts, s, spec); !slices.Equal(rows, want) {
			t.Fatalf("trial %d, spec %v (demoted %v): sortRows %v, stable sort %v", trial, spec, b.Cols[1].Kind == value.KindInvalid, rows, want)
		}

		// Across batches: a typed batch against a demoted one, both ways.
		o, ots := randomKeyBatch(rng, s, 1+rng.Intn(20), trial%2 == 0)
		sb, so := cmp.left(b), cmp.right(o)
		for x := 0; x < min(n, 20); x++ {
			for y := range ots {
				want := stableCmp(ts[x], ots[y], s, spec)
				if got := cmp.compare(sb, x, so, y); got != want {
					t.Fatalf("trial %d, spec %v: row %v against %v compares %d, want %d", trial, spec, ts[x], ots[y], got, want)
				}
				if got := cmp.compare(so, y, sb, x); got != -want {
					t.Fatalf("trial %d, spec %v: row %v against %v compares %d, want %d", trial, spec, ots[y], ts[x], got, -want)
				}
			}
		}
	}
}

// stableCmp is the spec's order of two tuples under value.Compare.
func stableCmp(a, b relation.Tuple, s *schema.Schema, spec relation.OrderSpec) int {
	for _, k := range spec {
		c := s.Index(k.Attr)
		r := a[c].Compare(b[c])
		if k.Dir == relation.Desc {
			r = -r
		}
		if r != 0 {
			return r
		}
	}
	return 0
}

// renderEmitted spells out what a body emitted — every row's sequence key,
// values and period — so a later change to anything it references shows.
func renderEmitted(ems []emitted) string {
	out := ""
	for _, m := range ems {
		t1, t2 := m.b.Schema.TimeIndices()
		for k, i := range m.rows {
			p := period.Period{}
			if t1 >= 0 {
				p = m.b.PeriodAt(t1, t2, i)
			}
			if m.per != nil {
				p = m.per[k]
			}
			row := make(relation.Tuple, len(m.b.Cols))
			m.b.FillRow(row, i)
			out += fmt.Sprintf("%d %v %v\n", m.seq(k), row, p)
		}
	}
	return out
}

// TestPooledScratchNeverAliasesOutput runs each pooled body twice in a row —
// sequentially, then on the worker pool — with different partitions, and
// checks that the second call, which reuses the first one's scratch, leaves
// everything the first call emitted unchanged.
func TestPooledScratchNeverAliasesOutput(t *testing.T) {
	sch := sweepPartition(1, 1, 0).b.Schema
	vidx := physical.ValueIdx(sch)
	t1, t2 := sch.TimeIndices()
	bodies := map[string]partBody{
		`\ᵀ`:    tdiffBody(vidx, t1, t2),
		`∪ᵀ`:    tunionBody(vidx, t1, t2),
		"rdupᵀ": rdupTBody(vidx, t1, t2, false),
		"coalᵀ": coalTBody(vidx, t1, t2, false),
		"rdup":  rdupBody(vidx),
		`\`:     diffBody(vidx),
		"∪":     unionBody(vidx),
	}
	inputs := func(round int) [][2]part {
		var in [][2]part
		for k := 0; k < 6; k++ {
			g := 5 + 17*k + 3*round
			in = append(in, [2]part{sweepPartition(g, 3+k%2, period.Chronon(round)), sweepPartition(g+2, 2, period.Chronon(2+k))})
		}
		return in
	}
	for name, body := range bodies {
		for _, workers := range []int{1, 4} {
			outs := make([][]emitted, 6)
			want := make([]string, 6)
			for round := 0; round < 2; round++ {
				in := inputs(round)
				var mu sync.Mutex
				err := runTasks(workers, len(in), func(k int) error {
					ems, err := body(in[k][0], in[k][1])
					if round == 0 {
						mu.Lock()
						outs[k], want[k] = ems, renderEmitted(ems)
						mu.Unlock()
					}
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			for k := range outs {
				if got := renderEmitted(outs[k]); got != want[k] {
					t.Fatalf("%s, %d workers, partition %d: a later call changed the output\nbefore:\n%s\nafter:\n%s", name, workers, k, want[k], got)
				}
			}
		}
	}
}

// BenchmarkKeyKernels measures the key layer on its own: sortRows and the
// group table (scratch.groupRows, as the partition bodies call it) over
// 10k and 100k rows, keyed by one string column or by two int columns, at
// few and at many groups.
func BenchmarkKeyKernels(b *testing.B) {
	s := schema.MustNew(
		schema.Attr("S", value.KindString),
		schema.Attr("A", value.KindInt),
		schema.Attr("C", value.KindInt))
	for _, n := range []int{10_000, 100_000} {
		for _, groups := range []int{16, n / 2} {
			rng := rand.New(rand.NewSource(int64(n + groups)))
			batch := column.NewBatch(s, n)
			for i := 0; i < n; i++ {
				g := rng.Intn(groups)
				batch.Cols[0].Append(value.String_(fmt.Sprintf("emp%07d", g)))
				batch.Cols[1].Append(value.Int(int64(g / 64)))
				batch.Cols[2].Append(value.Int(int64(g % 64)))
				batch.N++
			}
			for _, key := range []struct {
				name string
				idx  []int
			}{{"string", []int{0}}, {"int2", []int{1, 2}}} {
				var spec relation.OrderSpec
				for _, c := range key.idx {
					spec = append(spec, relation.Key(s.At(c).Name))
				}
				suffix := fmt.Sprintf("%s/rows=%d/groups=%d", key.name, n, groups)
				b.Run("sort/"+suffix, func(b *testing.B) {
					cmp := compileVecCmp(s, spec)
					rows := make([]int, n)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						sortRows(batch, seqRows(rows, 0, n), cmp)
					}
				})
				b.Run("group/"+suffix, func(b *testing.B) {
					p := part{b: batch, rows: seqRows(nil, 0, n)}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						sc := getScratch()
						sc.groupRows(p, key.idx, false)
						sc.release()
					}
				})
			}
		}
	}
}

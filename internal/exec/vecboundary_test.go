package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/eval"
	"tqp/internal/expr"
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// boundaryRelation builds a duplicate-heavy temporal relation of exactly n
// rows: a small name alphabet and group range so dedup, diff and union all
// have real work at every size.
func boundaryRelation(n int, seed int64) (*relation.Relation, *schema.Schema) {
	s := schema.MustNew(
		schema.Attr("Name", value.KindString),
		schema.Attr("Grp", value.KindInt),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime))
	rng := rand.New(rand.NewSource(seed))
	ts := make([]relation.Tuple, n)
	for i := range ts {
		t1 := period.Chronon(rng.Intn(16))
		ts[i] = relation.Tuple{
			value.String_(string(rune('a' + rng.Intn(4)))),
			value.Int(int64(rng.Intn(5))),
			value.Time(t1),
			value.Time(t1 + period.Chronon(1+rng.Intn(8))),
		}
	}
	return relation.FromTuplesTrusted(s, ts), s
}

// TestVecBatchBoundarySizes drives every batch-compiled operator family —
// sort, sorted dedup, merge diff/union, hash dedup, temporal dedup — at
// the batch-arithmetic edge cases: empty input, a single row, and sizes
// straddling the vecBatchRows boundary. The second half of the plan list
// is the tuple→batch adapter boundary: σ, π, sort and rdup directly over
// each operator that exists tuple-at-a-time only (\ᵀ, ∪ᵀ, ⊔, keyless ×),
// the child built to deliver exactly n rows so the adapter's batch cut
// lands on the same edges. Each engine configuration (sequential, parallel
// exchange, grace-spilling budget, and both combined) must match the
// reference evaluator exactly — list and Table 1 order annotation — and
// the counters must show the batch paths actually ran.
func TestVecBatchBoundarySizes(t *testing.T) {
	sizes := []int{0, 1, 2, vecBatchRows - 1, vecBatchRows, vecBatchRows + 1, 2*vecBatchRows + 1, 2*vecBatchRows + 3}
	engines := []struct {
		name string
		opts Config
	}{
		{"exec", Config{}},
		{"exec-par3", Config{Parallelism: 3}},
		{"exec-mem", Config{MemoryBudget: 1 << 12}},
		{"exec-par2-mem", Config{Parallelism: 2, MemoryBudget: 1 << 13}},
	}
	one := schema.MustNew(schema.Attr("K", value.KindInt))
	for _, n := range sizes {
		r, s := boundaryRelation(n, int64(n)*37+1)
		// Slices of B that recombine to exactly n rows under ⊔ and ∪ᵀ, and
		// a right side on fresh names so \ᵀ and ∪ᵀ do their grouping work
		// without changing the row count.
		ts := r.Tuples()
		fresh, _ := boundaryRelation(64, int64(n)*37+2)
		var other []relation.Tuple
		for _, t := range fresh.Tuples() {
			t = append(relation.Tuple(nil), t...)
			t[0] = value.String_("z" + t[0].AsString())
			other = append(other, t)
		}
		most, last := ts, []relation.Tuple(nil)
		if n > 0 {
			most, last = ts[:n-1], []relation.Tuple{append(relation.Tuple{value.String_("y")}, ts[n-1][1:]...)}
		}
		src := eval.MapSource{
			"B":     r,
			"Lo":    relation.FromTuplesTrusted(s, ts[:n/2]),
			"Hi":    relation.FromTuplesTrusted(s, ts[n/2:]),
			"Most":  relation.FromTuplesTrusted(s, most),
			"Last":  relation.FromTuplesTrusted(s, last),
			"Other": relation.FromTuplesTrusted(s, other),
			"One":   relation.FromTuplesTrusted(one, []relation.Tuple{{value.Int(7)}}),
		}
		rel := func(name string) algebra.Node { return algebra.NewRel(name, s, algebra.BaseInfo{}) }
		base := rel("B")
		byAll := relation.OrderSpec{
			relation.Key("Name"), relation.Key("Grp"), relation.Key(schema.T1), relation.Key(schema.T2),
		}
		plans := []algebra.Node{
			algebra.NewSort(byAll, base),
			algebra.NewRdup(algebra.NewSort(byAll, base)),
			algebra.NewDiff(algebra.NewSort(byAll, base), algebra.NewSort(byAll, base)),
			algebra.NewUnion(algebra.NewSort(byAll, base), algebra.NewSort(byAll, base)),
			algebra.NewRdup(base),
			algebra.NewTRdup(base),
		}
		for _, child := range []algebra.Node{
			algebra.NewTDiff(base, rel("Other")),
			algebra.NewTUnion(rel("Most"), rel("Last")),
			algebra.NewUnionAll(rel("Lo"), rel("Hi")),
			algebra.NewProduct(base, algebra.NewRel("One", one, algebra.BaseInfo{})),
		} {
			if got, err := eval.New(src).Eval(child); err != nil || got.Len() != n {
				t.Fatalf("n=%d: tuple-only child %s delivers %d rows (%v), want %d", n, algebra.Canonical(child), got.Len(), err, n)
			}
			plans = append(plans,
				algebra.NewSelect(expr.Compare(expr.Lt, expr.Column("Grp"), expr.Literal(value.Int(3))), child),
				algebra.NewProject([]algebra.ProjItem{algebra.ColItem("Grp"), algebra.ColItem("Name")}, child),
				algebra.NewSort(relation.OrderSpec{relation.KeyDesc("Grp"), relation.Key("Name")}, child),
				algebra.NewRdup(child),
			)
		}
		spilled := 0
		for pi, plan := range plans {
			want, err := eval.New(src).Eval(plan)
			if err != nil {
				t.Fatalf("n=%d plan %d: reference: %v", n, pi, err)
			}
			for _, eng := range engines {
				e := NewWith(src, eng.opts)
				got, err := e.Eval(plan)
				st := e.Stats()
				if cerr := e.Close(); cerr != nil {
					t.Fatalf("n=%d plan %d %s: close: %v", n, pi, eng.name, cerr)
				}
				if err != nil {
					t.Fatalf("n=%d plan %d %s: %v", n, pi, eng.name, err)
				}
				if !got.EqualAsList(want) {
					t.Fatalf("n=%d plan %d %s: result differs\ngot:\n%s\nwant:\n%s",
						n, pi, eng.name, got, want)
				}
				if !got.Order().Equal(want.Order()) {
					t.Fatalf("n=%d plan %d %s: order annotation %s, reference %s",
						n, pi, eng.name, got.Order(), want.Order())
				}
				// Vacuity guard on the sequential engine, whose root operator
				// is a batch one in every plan: VectorOps fires even on empty
				// input — operators count at compile time — and batches flow
				// once there are rows to carry.
				if eng.name == "exec" {
					if st.VectorOps == 0 {
						t.Fatalf("n=%d plan %d: VectorOps == 0 — batch path did not compile", n, pi)
					}
					if want.Len() > 0 && st.VectorBatches == 0 {
						t.Fatalf("n=%d plan %d: VectorBatches == 0 on %d rows", n, pi, n)
					}
				}
				spilled += st.SpilledOps
			}
		}
		if n >= vecBatchRows-1 && spilled == 0 {
			t.Fatalf("n=%d: the budgeted legs never spilled", n)
		}
	}
}

// TestVecHashPartitionGather pins the scatter/gather contract the parallel
// batch operators rely on: vecHashPartition splits a batch view into
// disjoint ascending index lists that cover every visible row, and
// mergeAscending reassembles them into the original ascending order —
// which is what makes parallel plans bit-identical to sequential ones.
func TestVecHashPartitionGather(t *testing.T) {
	s := schema.MustNew(
		schema.Attr("K", value.KindInt),
		schema.Attr("S", value.KindString),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime))
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 63, vecBatchRows} {
		var ts []relation.Tuple
		for i := 0; i < n; i++ {
			ts = append(ts, relation.Tuple{
				value.Int(int64(rng.Intn(7))),
				value.String_(fmt.Sprintf("s%d", rng.Intn(3))),
				value.Time(period.Chronon(i)),
				value.Time(period.Chronon(i + 1)),
			})
		}
		b := batchOfTuples(s, ts)
		for _, selected := range []bool{false, true} {
			view := b
			if selected {
				// Select every other row, then compact: the scatter's
				// contract is physical rows of a compacted batch, and this
				// is how the parallel sources feed it selection views.
				var sel []int
				for i := 0; i < n; i += 2 {
					sel = append(sel, i)
				}
				view = b.withSel(sel).compact()
			}
			for _, p := range []int{1, 3, 8} {
				parts := vecHashPartition(view, []int{0, 1}, p)
				if len(parts) != p {
					t.Fatalf("n=%d p=%d: %d partitions", n, p, len(parts))
				}
				seen := make(map[int]int)
				for pi, part := range parts {
					for i := 1; i < len(part); i++ {
						if part[i] <= part[i-1] {
							t.Fatalf("n=%d p=%d: partition %d not ascending: %v", n, p, pi, part)
						}
					}
					for _, idx := range part {
						if _, dup := seen[idx]; dup {
							t.Fatalf("n=%d p=%d: row %d scattered twice", n, p, idx)
						}
						seen[idx] = pi
					}
				}
				if len(seen) != view.rows() {
					t.Fatalf("n=%d p=%d: scattered %d rows, view has %d", n, p, len(seen), view.rows())
				}
				merged := mergeAscending(parts)
				if len(merged) != view.rows() {
					t.Fatalf("n=%d p=%d: gather of %d rows, want %d", n, p, len(merged), view.rows())
				}
				for i := 1; i < len(merged); i++ {
					if merged[i] <= merged[i-1] {
						t.Fatalf("n=%d p=%d: gather not ascending at %d: %v", n, p, i, merged)
					}
				}
				// Rows on the same key must land in the same partition —
				// the property hash repartitioning correctness rests on.
				for i := 0; i < view.rows(); i++ {
					for j := i + 1; j < view.rows(); j++ {
						if view.cols[0].equalAt(i, &view.cols[0], j) && view.cols[1].equalAt(i, &view.cols[1], j) &&
							seen[i] != seen[j] {
							t.Fatalf("n=%d p=%d: equal keys split across partitions %d/%d", n, p, seen[i], seen[j])
						}
					}
				}
			}
		}
	}
}

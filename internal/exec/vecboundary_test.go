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
// straddling the vecBatchRows boundary. The second part of the plan list
// stacks σ, π, sort and rdup directly over ⊔, the keyless ×, \ᵀ and ∪ᵀ,
// the child built to deliver exactly n rows so the batch cut lands on the
// same edges. The third part is route equivalence: each of the nine
// keyed blocking operators the exchange driver runs (\, ∪, \ᵀ, ∪ᵀ, rdupᵀ,
// coalᵀ, 𝒢ᵀ, rdup, 𝒢) as the plan root — plus an empty right side for the
// two-sided ones, and a temporal relation of periods alone (no value
// column: one global value group under an empty key). Each engine
// configuration (sequential, parallel exchange, grace-spilling budget, and
// both combined) must match the reference evaluator exactly — list and
// Table 1 order annotation — and the counters must show the route actually
// ran: batch operators compiled everywhere, W partitions on the parallel
// leg, a spill exactly when an input exceeds its share, and no partitioning
// at all without a key.
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
	when := schema.MustNew(schema.Attr(schema.T1, value.KindTime), schema.Attr(schema.T2, value.KindTime))
	// share is the 4 KiB operator share both budgeted configurations grant
	// (a two-sided operator drains each input against half of it).
	const share = 1 << 12
	accounted := func(r *relation.Relation) (bytes int64) {
		b := batchOfTuples(r.Schema(), r.Tuples())
		for i := 0; i < b.N; i++ {
			bytes += b.MemSize(i)
		}
		return bytes
	}
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
			"None":  relation.FromTuplesTrusted(s, nil),
			"When":  relation.FromTuplesTrusted(when, periodsOnly(ts)),
			"Then":  relation.FromTuplesTrusted(when, periodsOnly(other)),
		}
		rel := func(name string) algebra.Node { return algebra.NewRel(name, s, algebra.BaseInfo{}) }
		base := rel("B")
		byAll := relation.OrderSpec{
			relation.Key("Name"), relation.Key("Grp"), relation.Key(schema.T1), relation.Key(schema.T2),
		}
		// route records what a driver-run root operator must show in the
		// counters: its inputs (right is nil for a one-sided operator) and
		// whether it has key columns to partition on.
		type route struct {
			left, right string
			keyed       bool
		}
		type rootPlan struct {
			node  algebra.Node
			route *route
		}
		plans := []rootPlan{
			{node: algebra.NewSort(byAll, base)},
			{node: algebra.NewRdup(algebra.NewSort(byAll, base))},
			{node: algebra.NewDiff(algebra.NewSort(byAll, base), algebra.NewSort(byAll, base))},
			{node: algebra.NewUnion(algebra.NewSort(byAll, base), algebra.NewSort(byAll, base))},
		}
		for _, child := range []algebra.Node{
			algebra.NewTDiff(base, rel("Other")),
			algebra.NewTUnion(rel("Most"), rel("Last")),
			algebra.NewUnionAll(rel("Lo"), rel("Hi")),
			algebra.NewProduct(base, algebra.NewRel("One", one, algebra.BaseInfo{})),
		} {
			if got, err := eval.New(src).Eval(child); err != nil || got.Len() != n {
				t.Fatalf("n=%d: child %s delivers %d rows (%v), want %d", n, algebra.Canonical(child), got.Len(), err, n)
			}
			plans = append(plans,
				rootPlan{node: algebra.NewSelect(expr.Compare(expr.Lt, expr.Column("Grp"), expr.Literal(value.Int(3))), child)},
				rootPlan{node: algebra.NewProject([]algebra.ProjItem{algebra.ColItem("Grp"), algebra.ColItem("Name")}, child)},
				rootPlan{node: algebra.NewSort(relation.OrderSpec{relation.KeyDesc("Grp"), relation.Key("Name")}, child)},
				rootPlan{node: algebra.NewRdup(child)},
			)
		}
		count := []expr.Aggregate{{Func: expr.CountAll, As: "C"}}
		// The two extra input shapes — an empty right side, periods alone —
		// run at an empty, a tiny and a batch-straddling size; the spilling
		// legs make every further size expensive.
		extraShapes := n == 0 || n == 2 || n == vecBatchRows+1
		rights := []string{"Other"}
		if extraShapes {
			rights = append(rights, "None")
		}
		for _, right := range rights {
			two := &route{left: "B", right: right, keyed: true}
			plans = append(plans,
				rootPlan{algebra.NewDiff(base, rel(right)), two},
				rootPlan{algebra.NewUnion(base, rel(right)), two},
				rootPlan{algebra.NewTDiff(base, rel(right)), two},
				rootPlan{algebra.NewTUnion(base, rel(right)), two},
			)
		}
		oneSided := &route{left: "B", keyed: true}
		plans = append(plans,
			rootPlan{algebra.NewTRdup(base), oneSided},
			rootPlan{algebra.NewCoal(base), oneSided},
			rootPlan{algebra.NewTAggregate([]string{"Grp"}, count, base), oneSided},
			rootPlan{algebra.NewRdup(base), oneSided},
			rootPlan{algebra.NewAggregate([]string{"Grp"}, count, base), oneSided},
		)
		// Periods alone: the value-equivalence key is empty, every row is in
		// the one global group, and there is nothing to partition on.
		whenRel := algebra.NewRel("When", when, algebra.BaseInfo{})
		thenRel := algebra.NewRel("Then", when, algebra.BaseInfo{})
		if extraShapes {
			plans = append(plans,
				rootPlan{algebra.NewTRdup(whenRel), &route{left: "When"}},
				rootPlan{algebra.NewCoal(whenRel), &route{left: "When"}},
				rootPlan{algebra.NewTDiff(whenRel, thenRel), &route{left: "When", right: "Then"}},
				rootPlan{algebra.NewTUnion(whenRel, thenRel), &route{left: "When", right: "Then"}},
			)
		}
		spilled := 0
		for pi, rp := range plans {
			plan := rp.node
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
				if rp.route != nil {
					checkRoute(t, fmt.Sprintf("n=%d plan %d (%s) %s", n, pi, algebra.Canonical(plan), eng.name), eng.opts, st,
						rp.route.keyed, rp.route.right != "", share,
						accounted(src[rp.route.left]), accountedOr0(accounted, src, rp.route.right))
				}
			}
		}
		if n >= vecBatchRows-1 && spilled == 0 {
			t.Fatalf("n=%d: the budgeted legs never spilled", n)
		}
	}
}

// periodsOnly projects temporal tuples onto their period columns.
func periodsOnly(ts []relation.Tuple) []relation.Tuple {
	out := make([]relation.Tuple, len(ts))
	for i, t := range ts {
		out[i] = relation.Tuple{t[len(t)-2], t[len(t)-1]}
	}
	return out
}

func accountedOr0(accounted func(*relation.Relation) int64, src eval.MapSource, name string) int64 {
	if name == "" {
		return 0
	}
	return accounted(src[name])
}

// checkRoute asserts that the counters of one run of a driver-compiled root
// operator show the route its configuration and input sizes call for.
func checkRoute(t *testing.T, what string, opts Config, st Stats, keyed, twoSided bool, share, leftBytes, rightBytes int64) {
	t.Helper()
	if st.VectorOps == 0 {
		t.Fatalf("%s: VectorOps == 0 — the operator did not compile batch-at-a-time", what)
	}
	if twoSided {
		share /= 2
	}
	budgeted, parallel := opts.MemoryBudget > 0, opts.Parallelism > 1
	wantSpill := budgeted && keyed && (leftBytes > share || rightBytes > share)
	if (st.SpilledOps > 0) != wantSpill {
		t.Fatalf("%s: SpilledOps = %d with inputs of %d/%d accounted bytes against a %d-byte share (keyed=%v)",
			what, st.SpilledOps, leftBytes, rightBytes, share, keyed)
	}
	// Partitions fan out to the pool under plain parallelism, and when a
	// parallel budgeted run spills; never without a key.
	wantParallel := keyed && parallel && (!budgeted || wantSpill)
	if (st.ParallelOps > 0) != wantParallel || st.Partitions != st.ParallelOps*opts.Parallelism {
		t.Fatalf("%s: ParallelOps = %d, Partitions = %d at Parallelism %d (keyed=%v, spilled=%v)",
			what, st.ParallelOps, st.Partitions, opts.Parallelism, keyed, wantSpill)
	}
}

// TestVecHashPartitionGather pins the scatter/gather contract the W-way
// route relies on: hashParts splits a compacted batch into disjoint
// ascending row lists that cover every row and keep equal keys together,
// and gather reassembles the partitions' outputs — here every row, passed
// through — into the original list order, which is what makes parallel
// plans bit-identical to sequential ones.
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
		for _, p := range []int{1, 3, 8} {
			parts := hashParts(b, []int{0, 1}, p)
			if len(parts) != p {
				t.Fatalf("n=%d p=%d: %d partitions", n, p, len(parts))
			}
			seen := make(map[int]int)
			var ems []emitted
			for pi, part := range parts {
				for i := 1; i < len(part.rows); i++ {
					if part.rows[i] <= part.rows[i-1] {
						t.Fatalf("n=%d p=%d: partition %d not ascending: %v", n, p, pi, part.rows)
					}
				}
				for _, idx := range part.rows {
					if _, dup := seen[idx]; dup {
						t.Fatalf("n=%d p=%d: row %d scattered twice", n, p, idx)
					}
					seen[idx] = pi
				}
				ems = append(ems, emitted{part: part})
			}
			if len(seen) != n {
				t.Fatalf("n=%d p=%d: scattered %d rows, batch has %d", n, p, len(seen), n)
			}
			// Rows on the same key must land in the same partition — the
			// property every partition body's correctness rests on.
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if keysEqual(b, i, b, j, []int{0, 1}) && seen[i] != seen[j] {
						t.Fatalf("n=%d p=%d: equal keys split across partitions %d/%d", n, p, seen[i], seen[j])
					}
				}
			}
			out := gather(s, ems)
			if n == 0 {
				if len(out) != 0 {
					t.Fatalf("p=%d: gather of nothing produced %d batches", p, len(out))
				}
				continue
			}
			if len(out) != 1 || out[0].Rows() != n {
				t.Fatalf("n=%d p=%d: gather produced %d batches", n, p, len(out))
			}
			for k := 0; k < n; k++ {
				if got := out[0].RowIndex(k); got != k {
					t.Fatalf("n=%d p=%d: gathered position %d reads row %d", n, p, k, got)
				}
			}
		}
	}
}

package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"tqp/internal/column"
	"tqp/internal/expr"
	"tqp/internal/period"
	"tqp/internal/physical"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// batchOfTuples converts a tuple list to one batch.
func batchOfTuples(s *schema.Schema, ts []relation.Tuple) *column.Batch {
	b, _ := relation.FromTuplesTrusted(s, ts).Columns()
	return b
}

func productSchema(t *testing.T) *schema.Schema {
	t.Helper()
	left := schema.MustNew(
		schema.Attr("Name", value.KindString),
		schema.Attr("Grp", value.KindInt),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime))
	out, err := left.QualifyTime(1).Concat(left.QualifyTime(2))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEquiKeys pins the predicate split driving physical join selection.
func TestEquiKeys(t *testing.T) {
	out := productSchema(t) // 1.Name 1.Grp 1.T1 1.T2 2.Name 2.Grp 2.T1 2.T2
	lw, rw := 4, 4

	eq := expr.Compare(expr.Eq, expr.Column("1.Grp"), expr.Column("2.Grp"))
	lidx, ridx, residual := physical.EquiKeys(eq, out, lw, rw)
	if len(lidx) != 1 || lidx[0] != 1 || ridx[0] != 1 || residual != nil {
		t.Fatalf("equi conjunct: lidx=%v ridx=%v residual=%v", lidx, ridx, residual)
	}

	// Reversed operand order must extract the same pair.
	rev := expr.Compare(expr.Eq, expr.Column("2.Name"), expr.Column("1.Name"))
	lidx, ridx, residual = physical.EquiKeys(rev, out, lw, rw)
	if len(lidx) != 1 || lidx[0] != 0 || ridx[0] != 0 || residual != nil {
		t.Fatalf("reversed equi conjunct: lidx=%v ridx=%v residual=%v", lidx, ridx, residual)
	}

	// Mixed predicate: the equality hashes, the inequality stays residual.
	mixed := expr.Conj(eq, expr.Compare(expr.Lt, expr.Column("1.T1"), expr.Column("2.T1")))
	lidx, _, residual = physical.EquiKeys(mixed, out, lw, rw)
	if len(lidx) != 1 || residual == nil {
		t.Fatalf("mixed predicate: lidx=%v residual=%v", lidx, residual)
	}

	// Same-side equality cannot be a hash key.
	sameSide := expr.Compare(expr.Eq, expr.Column("1.Name"), expr.Column("1.Grp"))
	lidx, _, residual = physical.EquiKeys(sameSide, out, lw, rw)
	if lidx != nil || residual == nil {
		t.Fatalf("same-side equality must stay residual: lidx=%v residual=%v", lidx, residual)
	}

	// A non-equi predicate falls back entirely.
	theta := expr.Compare(expr.Lt, expr.Column("1.Grp"), expr.Column("2.Grp"))
	lidx, _, residual = physical.EquiKeys(theta, out, lw, rw)
	if lidx != nil || residual == nil {
		t.Fatalf("theta predicate must stay residual: lidx=%v residual=%v", lidx, residual)
	}
}

// TestGroupsContiguous pins the OrderSpec reasoning that lets the grouping
// operators skip the hash table.
func TestGroupsContiguous(t *testing.T) {
	s := schema.MustNew(
		schema.Attr("Name", value.KindString),
		schema.Attr("Grp", value.KindInt),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime))
	vidx := valueIdx(s) // Name, Grp
	cases := []struct {
		ord  relation.OrderSpec
		want bool
	}{
		{nil, false},
		{relation.OrderSpec{relation.Key("Name")}, false}, // Grp still varies
		{relation.OrderSpec{relation.Key("Name"), relation.Key("Grp")}, true},
		{relation.OrderSpec{relation.KeyDesc("Grp"), relation.Key("Name")}, true}, // direction irrelevant
		{relation.OrderSpec{relation.Key("Name"), relation.Key("Grp"), relation.Key("T1")}, true},
		{relation.OrderSpec{relation.Key("T1"), relation.Key("Name"), relation.Key("Grp")}, false}, // time attr splits groups
	}
	for _, c := range cases {
		if got := groupsContiguous(c.ord, s, vidx); got != c.want {
			t.Errorf("groupsContiguous(%s) = %v, want %v", c.ord, got, c.want)
		}
	}
}

// TestGroupsContiguousDuplicateKeys is the regression for the duplicate
// order-key bug: sort_{Name,Name} covers only Name, so it must NOT prove
// (Name, Grp) groups contiguous — counting the repeat twice used to take
// the hash-free path and split value groups.
func TestGroupsContiguousDuplicateKeys(t *testing.T) {
	s := schema.MustNew(
		schema.Attr("Name", value.KindString),
		schema.Attr("Grp", value.KindInt),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime))
	vidx := valueIdx(s)
	dup := relation.OrderSpec{relation.Key("Name"), relation.Key("Name")}
	if groupsContiguous(dup, s, vidx) {
		t.Fatal("sort_{Name,Name} must not prove (Name,Grp) contiguity")
	}
	if !groupsContiguous(relation.OrderSpec{relation.Key("Grp"), relation.Key("Grp"), relation.Key("Name")}, s, vidx) {
		t.Fatal("duplicates are harmless once every value attribute is covered")
	}
}

// TestCoalesceOnePassMatchesIterative cross-checks the sorted-group fast
// path against the reference shape of the iterative merge on random
// sorted, non-overlapping groups.
func TestCoalesceOnePassMatchesIterative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		var ss []vspan
		cur := period.Chronon(rng.Intn(3))
		for i := 0; i < rng.Intn(8); i++ {
			if rng.Intn(2) == 0 {
				cur += period.Chronon(1 + rng.Intn(3)) // gap
			}
			end := cur + period.Chronon(1+rng.Intn(3))
			ss = append(ss, vspan{src: i, p: period.New(cur, end)})
			cur = end
		}
		if !spansSortedDisjoint(ss) {
			t.Fatalf("generator must produce sorted disjoint groups")
		}
		fast := coalesceOnePassSpans(append([]vspan(nil), ss...))

		// The reference algorithm, group-locally.
		slow := append([]vspan(nil), ss...)
		for i := 0; i < len(slow); {
			merged := false
			for j := i + 1; j < len(slow); j++ {
				if !slow[i].p.Adjacent(slow[j].p) {
					continue
				}
				u, _ := slow[i].p.Union(slow[j].p)
				slow[i].p = u
				slow = append(slow[:j], slow[j+1:]...)
				merged = true
				break
			}
			if !merged {
				i++
			}
		}
		if len(fast) != len(slow) {
			t.Fatalf("one-pass produced %d spans, iterative %d", len(fast), len(slow))
		}
		for i := range fast {
			if fast[i] != slow[i] {
				t.Fatalf("span %d: one-pass %v vs iterative %v", i, fast[i], slow[i])
			}
		}
	}
}

// TestSortedDisjoint pins the fast-path guard.
func TestSortedDisjoint(t *testing.T) {
	p := func(a, b int) period.Period { return period.New(period.Chronon(a), period.Chronon(b)) }
	mk := func(ps ...period.Period) []vspan {
		ss := make([]vspan, len(ps))
		for i, pp := range ps {
			ss[i] = vspan{src: i, p: pp}
		}
		return ss
	}
	if !spansSortedDisjoint(mk(p(1, 2), p(2, 3), p(5, 7))) {
		t.Error("adjacent+gapped sorted periods must qualify")
	}
	if spansSortedDisjoint(mk(p(1, 3), p(2, 4))) {
		t.Error("overlap must disqualify")
	}
	if spansSortedDisjoint(mk(p(3, 4), p(1, 2))) {
		t.Error("unsorted must disqualify")
	}
	if spansSortedDisjoint(mk(p(2, 2))) {
		t.Error("empty period must disqualify")
	}
	if !spansSortedDisjoint(nil) {
		t.Error("the empty group qualifies vacuously")
	}
}

// sweepPartition builds a temporal partition of groups value groups, each
// with rows rows of overlapping periods, interleaved so that no group is
// contiguous.
func sweepPartition(groups, rows int, shift period.Chronon) part {
	s := schema.MustNew(
		schema.Attr("Name", value.KindString),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime))
	var ts []relation.Tuple
	for k := 0; k < rows; k++ {
		for g := 0; g < groups; g++ {
			start := shift + period.Chronon(3*k+g%5)
			ts = append(ts, relation.Tuple{value.String_(fmt.Sprintf("g%04d", g)), value.Time(start), value.Time(start + 5)})
		}
	}
	return wholeBatch(batchOfTuples(s, ts))
}

// TestSweepBodiesAllocateByPartition pins the sweep's scratch to the body
// call: the \ᵀ and rdupᵀ partition bodies over 2,000 value groups allocate
// at most a small constant more than over 20 — the buffers are reset per
// group, never allocated per group. Beside the constant, which covers the
// amortized growth of the scratch to the largest group, the bound admits
// what the group table's map allocates more at the larger size hint (the
// runtime may store a large map in several tables).
func TestSweepBodiesAllocateByPartition(t *testing.T) {
	sch := sweepPartition(1, 1, 0).b.Schema
	vidx := valueIdx(sch)
	t1, t2 := sch.TimeIndices()
	var table map[uint64]int
	allocs := func(groups int) (diff, rdup float64) {
		lp, rp := sweepPartition(groups, 3, 0), sweepPartition(groups, 2, 2)
		tdiff, trdup := tdiffBody(vidx, t1, t2), rdupTBody(vidx, t1, t2, false)
		diff = testing.AllocsPerRun(5, func() { _, _ = tdiff(lp, rp) })
		diff -= testing.AllocsPerRun(5, func() { table = make(map[uint64]int, len(lp.rows)+len(rp.rows)) })
		rdup = testing.AllocsPerRun(5, func() { _, _ = trdup(lp, part{}) })
		rdup -= testing.AllocsPerRun(5, func() { table = make(map[uint64]int, len(lp.rows)) })
		return diff, rdup
	}
	const slack = 8
	smallDiff, smallRdup := allocs(20)
	bigDiff, bigRdup := allocs(2000)
	t.Logf("beside the group table: \\ᵀ %v → %v allocs, rdupᵀ %v → %v allocs", smallDiff, bigDiff, smallRdup, bigRdup)
	if bigDiff > smallDiff+slack {
		t.Errorf("\\ᵀ body: %v allocs at 2,000 groups, %v at 20: the sweep allocates per group", bigDiff, smallDiff)
	}
	if bigRdup > smallRdup+slack {
		t.Errorf("rdupᵀ body: %v allocs at 2,000 groups, %v at 20: the sweep allocates per group", bigRdup, smallRdup)
	}
	_ = table
}

package eval

import (
	"slices"

	"tqp/internal/algebra"
	"tqp/internal/expr"
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// evalTProduct implements the temporal Cartesian product ×ᵀ: every pair of
// tuples with overlapping periods joins; the result retains both argument
// timestamps under qualified names and carries the intersection period as
// its own T1/T2 (Section 4.3). An optional fused predicate implements the
// temporal-join idiom.
func evalTProduct(l, r *relation.Relation, outSchema *schema.Schema, p expr.Pred) (*relation.Relation, error) {
	lw, rw := l.Schema().Len(), r.Schema().Len()
	var out []relation.Tuple
	for i, lt := range l.Tuples() {
		lp := l.PeriodOf(i)
		for j, rt := range r.Tuples() {
			iv := lp.Intersect(r.PeriodOf(j))
			if iv.Empty() {
				continue
			}
			nt := make(relation.Tuple, lw+rw+2)
			copy(nt, lt)
			copy(nt[lw:], rt)
			nt[lw+rw] = value.Time(iv.Start)
			nt[lw+rw+1] = value.Time(iv.End)
			if p != nil {
				ok, err := p.Holds(outSchema, nt)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			out = append(out, nt)
		}
	}
	return relation.FromTuplesTrusted(outSchema, out), nil
}

// valueGroups partitions the tuple indices of a temporal relation by
// value-equivalence (equality on all non-time attributes), preserving
// first-occurrence order of the groups and list order within each group.
func valueGroups(r *relation.Relation) (keys []string, groups map[string][]int) {
	t1, t2 := r.Schema().TimeIndices()
	idx := make([]int, 0, r.Schema().Len()-2)
	for i := 0; i < r.Schema().Len(); i++ {
		if i != t1 && i != t2 {
			idx = append(idx, i)
		}
	}
	groups = make(map[string][]int)
	for i, t := range r.Tuples() {
		k := t.KeyOn(idx)
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], i)
	}
	return keys, groups
}

// evalTDiff implements the temporal difference \ᵀ with exact
// snapshot-reducible semantics: at every instant t, a value occurs
// max(n1(v,t) − n2(v,t), 0) times in the result. The left argument's tuples
// are processed in list order and the earliest left occurrences absorb the
// subtraction at each instant, so with a snapshot-duplicate-free left
// argument this is exactly "left period minus the union of the right
// group's periods", the reading of Section 2.1's example query.
//
// The paper's Table 1 bounds the cardinality by 2·n(r1), which holds for
// the pairwise recursion it sketches; exact per-snapshot semantics against
// a fragmented right argument can produce more fragments —
// the cost model uses the paper's bound as an estimate only.
func evalTDiff(l, r *relation.Relation, outSchema *schema.Schema) *relation.Relation {
	lt1, lt2 := l.Schema().TimeIndices()

	_, rGroups := valueGroups(r)
	lKeys, lGroups := valueGroups(l)

	// frag[i] collects the surviving fragments of left tuple i.
	frag := make(map[int][]period.Period, l.Len())
	for _, k := range lKeys {
		leftIdx := lGroups[k]
		var rightPeriods []period.Period
		for _, j := range rGroups[k] {
			if p := r.PeriodOf(j); !p.Empty() {
				rightPeriods = append(rightPeriods, p)
			}
		}
		all := make([]period.Period, 0, len(leftIdx)+len(rightPeriods))
		for _, i := range leftIdx {
			all = append(all, l.PeriodOf(i))
		}
		all = append(all, rightPeriods...)
		ivs := period.ElementaryIntervals(all)
		// budget[x] = how many right-copies remain to cancel left tuples on
		// elementary interval x.
		budget := make([]int, len(ivs))
		for x, iv := range ivs {
			for _, rp := range rightPeriods {
				if rp.ContainsPeriod(iv) {
					budget[x]++
				}
			}
		}
		for _, i := range leftIdx {
			lp := l.PeriodOf(i)
			if lp.Empty() {
				continue
			}
			var cur period.Period
			for x, iv := range ivs {
				if !lp.ContainsPeriod(iv) || iv.Empty() {
					continue
				}
				if budget[x] > 0 {
					budget[x]--
					if !cur.Empty() {
						frag[i] = append(frag[i], cur)
						cur = period.Period{}
					}
					continue
				}
				if !cur.Empty() && cur.End == iv.Start {
					cur.End = iv.End
				} else {
					if !cur.Empty() {
						frag[i] = append(frag[i], cur)
					}
					cur = iv
				}
			}
			if !cur.Empty() {
				frag[i] = append(frag[i], cur)
			}
		}
	}

	var out []relation.Tuple
	for i, t := range l.Tuples() {
		for _, p := range frag[i] {
			out = append(out, t.WithPeriodAt(lt1, lt2, p))
		}
	}
	return relation.FromTuplesTrusted(outSchema, out)
}

// evalTRdup implements temporal duplicate elimination rdupᵀ exactly per the
// paper's λ-calculus definition (Section 2.5), iteratively: for each tuple
// (the "head"), repeatedly find the first later value-equivalent tuple
// whose period overlaps (Overᵀ) and replace it in place with its period
// minus the head's period (Changeᵀ with [overlapping] \ᵀ [head] — zero, one
// or two tuples).
func evalTRdup(in *relation.Relation, outSchema *schema.Schema) *relation.Relation {
	t1, t2 := in.Schema().TimeIndices()
	valIdx := make([]int, 0, in.Schema().Len()-2)
	for i := 0; i < in.Schema().Len(); i++ {
		if i != t1 && i != t2 {
			valIdx = append(valIdx, i)
		}
	}

	type row struct {
		t relation.Tuple
		p period.Period
		k string
	}
	rows := make([]row, 0, in.Len())
	for _, t := range in.Tuples() {
		rows = append(rows, row{t: t, p: t.PeriodAt(t1, t2), k: t.KeyOn(valIdx)})
	}

	for i := 0; i < len(rows); i++ {
		head := rows[i]
		for {
			j := -1
			for x := i + 1; x < len(rows); x++ {
				if rows[x].k == head.k && rows[x].p.Overlaps(head.p) {
					j = x
					break
				}
			}
			if j < 0 {
				break
			}
			frags := rows[j].p.Subtract(head.p)
			repl := make([]row, 0, 2)
			for _, f := range frags {
				repl = append(repl, row{t: rows[j].t.WithPeriodAt(t1, t2, f), p: f, k: rows[j].k})
			}
			rows = slices.Replace(rows, j, j+1, repl...)
		}
	}

	var out []relation.Tuple
	for _, rw := range rows {
		out = append(out, rw.t)
	}
	return relation.FromTuplesTrusted(outSchema, out)
}

// evalCoal implements coalescing coalᵀ per the paper's minimal definition
// (Section 2.4): value-equivalent tuples with *adjacent* periods are merged,
// tuple order is retained (the merged tuple stays at the earlier position),
// and — unlike Böhlen et al.'s coalescing — overlapping periods are not
// merged; that effect is obtained by applying rdupᵀ first.
func evalCoal(in *relation.Relation, outSchema *schema.Schema) *relation.Relation {
	t1, t2 := in.Schema().TimeIndices()
	valIdx := make([]int, 0, in.Schema().Len()-2)
	for i := 0; i < in.Schema().Len(); i++ {
		if i != t1 && i != t2 {
			valIdx = append(valIdx, i)
		}
	}
	type row struct {
		t relation.Tuple
		p period.Period
		k string
	}
	rows := make([]row, 0, in.Len())
	for _, t := range in.Tuples() {
		rows = append(rows, row{t: t, p: t.PeriodAt(t1, t2), k: t.KeyOn(valIdx)})
	}
	for i := 0; i < len(rows); {
		merged := false
		for j := i + 1; j < len(rows); j++ {
			if rows[j].k != rows[i].k || !rows[i].p.Adjacent(rows[j].p) {
				continue
			}
			u, _ := rows[i].p.Union(rows[j].p)
			rows[i].p = u
			rows[i].t = rows[i].t.WithPeriodAt(t1, t2, u)
			rows = append(rows[:j], rows[j+1:]...)
			merged = true
			break
		}
		if !merged {
			i++
		}
	}
	var out []relation.Tuple
	for _, rw := range rows {
		out = append(out, rw.t)
	}
	return relation.FromTuplesTrusted(outSchema, out)
}

// evalTAggregate implements the temporal aggregation 𝒢ᵀ, snapshot-reducible
// to 𝒢: conceptually the aggregate is computed at each instant; the
// implementation decomposes each group's timeline into elementary intervals
// (within which the live tuple set is constant) and emits one result tuple
// per interval with at least one live tuple. Adjacent intervals with equal
// aggregate values are *not* merged — Table 1 records that 𝒢ᵀ destroys
// coalescing, and its cardinality bound 2·n(r)−1 is the elementary-interval
// count.
func evalTAggregate(n *algebra.Aggregate, in *relation.Relation, outSchema *schema.Schema) (*relation.Relation, error) {
	gidx := make([]int, len(n.GroupBy))
	for i, g := range n.GroupBy {
		gidx[i] = in.Schema().Index(g)
	}
	var keys []string
	groups := make(map[string][]int)
	for i, t := range in.Tuples() {
		k := t.KeyOn(gidx)
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], i)
	}
	var out []relation.Tuple
	for _, k := range keys {
		members := groups[k]
		ps := make([]period.Period, len(members))
		for x, i := range members {
			ps[x] = in.PeriodOf(i)
		}
		for _, iv := range period.ElementaryIntervals(ps) {
			accs := NewAccumulators(n.Aggs, in.Schema())
			live := 0
			for x, i := range members {
				if !ps[x].ContainsPeriod(iv) {
					continue
				}
				live++
				if err := FoldAggregates(accs, n.Aggs, in.Schema(), in.At(i)); err != nil {
					return nil, err
				}
			}
			if live == 0 {
				continue
			}
			nt := make(relation.Tuple, 0, outSchema.Len())
			rep := in.At(members[0])
			for _, gi := range gidx {
				nt = append(nt, rep[gi])
			}
			for _, acc := range accs {
				nt = append(nt, acc.Result())
			}
			nt = append(nt, value.Time(iv.Start), value.Time(iv.End))
			out = append(out, nt)
		}
	}
	return relation.FromTuplesTrusted(outSchema, out), nil
}

// evalTUnion implements the temporal union ∪ᵀ, snapshot-reducible to the
// multiset union ∪: at every instant each value occurs max(n1, n2) times.
// The result is all of r1 followed by, per value group and per excess
// layer, the maximal periods over which r2's multiplicity exceeds r1's.
func evalTUnion(l, r *relation.Relation, outSchema *schema.Schema) *relation.Relation {
	t1, t2 := l.Schema().TimeIndices()

	var out []relation.Tuple
	for _, t := range l.Tuples() {
		out = append(out, t)
	}

	rKeys, rGroups := valueGroups(r)
	_, lGroups := valueGroups(l)
	for _, k := range rKeys {
		var all []period.Period
		var rps, lps []period.Period
		for _, j := range rGroups[k] {
			p := r.PeriodOf(j)
			if !p.Empty() {
				rps = append(rps, p)
			}
		}
		for _, i := range lGroups[k] {
			p := l.PeriodOf(i)
			if !p.Empty() {
				lps = append(lps, p)
			}
		}
		all = append(append(all, rps...), lps...)
		ivs := period.ElementaryIntervals(all)
		extra := make([]int, len(ivs))
		maxExtra := 0
		for x, iv := range ivs {
			c1, c2 := 0, 0
			for _, p := range lps {
				if p.ContainsPeriod(iv) {
					c1++
				}
			}
			for _, p := range rps {
				if p.ContainsPeriod(iv) {
					c2++
				}
			}
			if c2 > c1 {
				extra[x] = c2 - c1
				if extra[x] > maxExtra {
					maxExtra = extra[x]
				}
			}
		}
		if maxExtra == 0 {
			continue
		}
		rep := r.At(rGroups[k][0])
		for layer := 1; layer <= maxExtra; layer++ {
			var cur period.Period
			flush := func() {
				if !cur.Empty() {
					out = append(out, rep.WithPeriodAt(t1, t2, cur))
					cur = period.Period{}
				}
			}
			for x, iv := range ivs {
				if extra[x] < layer {
					flush()
					continue
				}
				if !cur.Empty() && cur.End == iv.Start {
					cur.End = iv.End
				} else {
					flush()
					cur = iv
				}
			}
			flush()
		}
	}
	return relation.FromTuplesTrusted(outSchema, out)
}

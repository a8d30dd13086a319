package exec

import (
	"tqp/internal/algebra"
	"tqp/internal/eval"
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// buildValueGroup compiles rdupᵀ / coalᵀ — a span transform applied to each
// value-equivalence group. An input whose delivered order keeps value groups
// contiguous streams group-at-a-time with no hash table and no global
// materialization; otherwise the exchange driver partitions by value
// equivalence. (The engine never sorts first — coalescing is not confluent
// under reordering, so that would change the result multiset, not just its
// order.)
func (e *Engine) buildValueGroup(in *source, transform func([]vspan) []vspan) *source {
	t1, t2 := in.schema.TimeIndices()
	vidx := valueIdx(in.schema)
	contiguous := groupsContiguous(in.order, in.schema, vidx)
	body := valueGroupBody(vidx, t1, t2, contiguous, transform)
	if e.streams(in, vidx) {
		return e.groupSource(in, vidx, in.schema, body)
	}
	return e.keyedSource(&keyedOp{l: in, lidx: vidx, contiguous: contiguous, out: in.schema, body: body})
}

// pairGroups groups one partition pair's rows into a shared
// value-equivalence id space — the common scaffolding of the two-sided
// temporal bodies. lm/rm hold positions into lp.rows/rp.rows per group;
// rOrder lists the group ids in first-right-occurrence order (∪ᵀ's emission
// order; \ᵀ ignores it).
func pairGroups(lp, rp part, vidx []int) (lm, rm [][]int, rOrder []int) {
	groups := newVecGroups(vidx, len(lp.rows)+len(rp.rows))
	grow := func(fresh bool) {
		if fresh {
			lm = append(lm, nil)
			rm = append(rm, nil)
		}
	}
	for k, i := range lp.rows {
		gid, fresh := groups.groupOf(lp.b, i)
		grow(fresh)
		lm[gid] = append(lm[gid], k)
	}
	for k, i := range rp.rows {
		gid, fresh := groups.groupOf(rp.b, i)
		grow(fresh)
		if len(rm[gid]) == 0 {
			rOrder = append(rOrder, gid)
		}
		rm[gid] = append(rm[gid], k)
	}
	return lm, rm, rOrder
}

// periodsAt collects the periods of the partition rows at positions ks.
func periodsAt(p part, ks []int, t1, t2 int) []period.Period {
	ps := make([]period.Period, len(ks))
	for x, k := range ks {
		ps[x] = p.b.periodAt(t1, t2, p.rows[k])
	}
	return ps
}

// tdiffBody is the partition body of \ᵀ: per value group the
// elementary-interval subtraction (tdiffGroupFragments), the surviving
// fragments of each left row re-emitted in left list order.
func tdiffBody(vidx []int, t1, t2 int) partBody {
	return func(lp, rp part) ([]emitted, error) {
		lm, rm, _ := pairGroups(lp, rp, vidx)
		frag := make([][]period.Period, len(lp.rows))
		total := 0
		for gid, ks := range lm {
			if len(ks) == 0 {
				continue
			}
			fs := tdiffGroupFragments(periodsAt(lp, ks, t1, t2), periodsAt(rp, rm[gid], t1, t2))
			for x, k := range ks {
				frag[k] = fs[x]
				total += len(fs[x])
			}
		}
		rows, per := make([]int, 0, total), make([]period.Period, 0, total)
		for k, i := range lp.rows {
			for _, p := range frag[k] {
				rows, per = append(rows, i), append(per, p)
			}
		}
		return []emitted{{part: part{b: lp.b, rows: rows, seqs: lp.seqs}, per: per}}, nil
	}
}

// tunionBody is the partition body of ∪ᵀ: the left rows pass through whole;
// behind the whole left list follow, per right value group in
// first-right-occurrence order, the excess-layer periods
// (tunionExtraPeriods) on the group's first right row.
func tunionBody(vidx []int, t1, t2 int) partBody {
	return func(lp, rp part) ([]emitted, error) {
		lm, rm, rOrder := pairGroups(lp, rp, vidx)
		var rows []int
		var per []period.Period
		for _, gid := range rOrder {
			rep := rp.rows[rm[gid][0]]
			for _, p := range tunionExtraPeriods(periodsAt(lp, lm[gid], t1, t2), periodsAt(rp, rm[gid], t1, t2)) {
				rows, per = append(rows, rep), append(per, p)
			}
		}
		return []emitted{
			{part: lp},
			{part: part{b: rp.b, rows: rows, seqs: rp.seqs}, off: afterLeft, per: per},
		}, nil
	}
}

// buildTDiff compiles the temporal difference \ᵀ with exact per-snapshot
// semantics: both sides partition by value equivalence, each left group's
// timeline decomposes into elementary intervals where the matching right
// group's multiplicity forms a budget, and surviving fragments of each left
// tuple re-emit in left list order — the reference's algorithm with row
// hashes in place of string keys.
func (e *Engine) buildTDiff(l, r *source) *source {
	vidx := valueIdx(l.schema)
	t1, t2 := l.schema.TimeIndices()
	return e.keyedSource(&keyedOp{l: l, r: r, lidx: vidx, ridx: vidx, out: l.schema, body: tdiffBody(vidx, t1, t2)})
}

// buildTUnion compiles the temporal union ∪ᵀ: all of the left list followed
// by, per right value group in first-occurrence order, the maximal periods
// over which the right multiplicity exceeds the left's, layer by layer.
func (e *Engine) buildTUnion(l, r *source) *source {
	vidx := valueIdx(l.schema)
	t1, t2 := l.schema.TimeIndices()
	return e.keyedSource(&keyedOp{l: l, r: r, lidx: vidx, ridx: vidx, out: l.schema, body: tunionBody(vidx, t1, t2)})
}

// tdiffGroupFragments runs the temporal difference on one value-equivalence
// group: the group's timeline decomposes into elementary intervals, each
// non-empty right period contributes one unit of budget to the intervals it
// covers, and each left period — in list order, the earliest occurrences
// absorbing the subtraction — either consumes budget or keeps the interval,
// adjacent kept intervals fusing into maximal fragments. The result aligns
// positionally with lps; empty left periods yield no fragments.
func tdiffGroupFragments(lps, rps []period.Period) [][]period.Period {
	var rightPeriods []period.Period
	for _, p := range rps {
		if !p.Empty() {
			rightPeriods = append(rightPeriods, p)
		}
	}
	all := make([]period.Period, 0, len(lps)+len(rightPeriods))
	all = append(all, lps...)
	all = append(all, rightPeriods...)
	ivs := period.ElementaryIntervals(all)
	budget := make([]int, len(ivs))
	for x, iv := range ivs {
		for _, rp := range rightPeriods {
			if rp.ContainsPeriod(iv) {
				budget[x]++
			}
		}
	}
	frag := make([][]period.Period, len(lps))
	for k, lp := range lps {
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
					frag[k] = append(frag[k], cur)
					cur = period.Period{}
				}
				continue
			}
			if !cur.Empty() && cur.End == iv.Start {
				cur.End = iv.End
			} else {
				if !cur.Empty() {
					frag[k] = append(frag[k], cur)
				}
				cur = iv
			}
		}
		if !cur.Empty() {
			frag[k] = append(frag[k], cur)
		}
	}
	return frag
}

// tunionExtraPeriods computes one value-equivalence group's contribution
// beyond the left list under ∪ᵀ: for each excess layer 1..max, the maximal
// periods over which the right multiplicity exceeds the left's by at least
// that layer, in layer-then-timeline emission order. Empty periods on
// either side are ignored.
func tunionExtraPeriods(lpsIn, rpsIn []period.Period) []period.Period {
	var rps, lps []period.Period
	for _, p := range rpsIn {
		if !p.Empty() {
			rps = append(rps, p)
		}
	}
	for _, p := range lpsIn {
		if !p.Empty() {
			lps = append(lps, p)
		}
	}
	all := append(append([]period.Period{}, rps...), lps...)
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
	var out []period.Period
	for layer := 1; layer <= maxExtra; layer++ {
		var cur period.Period
		flush := func() {
			if !cur.Empty() {
				out = append(out, cur)
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
	return out
}

// buildTAggregate compiles 𝒢ᵀ: grouping in first-occurrence order, then
// per group one result tuple per elementary interval with live tuples,
// exactly the reference's constant-interval evaluation. An input whose
// delivered order keeps grouping columns contiguous streams group-at-a-time
// (groupCutIter); otherwise the exchange driver runs the same body over its
// partitions.
func (e *Engine) buildTAggregate(n *algebra.Aggregate, in *source, outSchema *schema.Schema) *source {
	gidx := make([]int, len(n.GroupBy))
	for i, g := range n.GroupBy {
		gidx[i] = in.schema.Index(g)
	}
	t1, t2 := in.schema.TimeIndices()
	emit := func(p part, members []int, scratch relation.Tuple, ob *batch) error {
		ps := periodsAt(p, members, t1, t2)
		for _, iv := range period.ElementaryIntervals(ps) {
			accs := eval.NewAccumulators(n.Aggs, in.schema)
			live := 0
			for x, k := range members {
				if !ps[x].ContainsPeriod(iv) {
					continue
				}
				live++
				p.b.fillTuple(scratch, p.rows[k])
				if err := eval.FoldAggregates(accs, n.Aggs, in.schema, scratch); err != nil {
					return err
				}
			}
			if live == 0 {
				continue
			}
			appendGroupRow(ob, p.b, p.rows[members[0]], gidx, accs)
			w := len(ob.cols)
			ob.cols[w-2].append(value.Time(iv.Start))
			ob.cols[w-1].append(value.Time(iv.End))
		}
		return nil
	}
	// A GROUP-BY-less 𝒢ᵀ is one global group whose constant intervals need
	// every row at once: with no key the driver never partitions it.
	contiguous := groupsContiguous(in.order, in.schema, gidx)
	body := groupEmitBody(gidx, contiguous, outSchema, emit)
	if e.streams(in, gidx) {
		return e.groupSource(in, gidx, outSchema, body)
	}
	return e.keyedSource(&keyedOp{l: in, lidx: gidx, contiguous: contiguous, out: outSchema, body: body})
}

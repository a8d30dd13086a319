package exec

import (
	"tqp/internal/algebra"
	"tqp/internal/eval"
	"tqp/internal/period"
	"tqp/internal/physical"
	"tqp/internal/relation"
	"tqp/internal/value"
)

// row is one tuple of a value-equivalence group during temporal grouping,
// tagged with its original list position so fragments re-interleave into the
// reference's output order.
type row struct {
	orig int
	t    relation.Tuple
	p    period.Period
}

// rdupTGroup runs the paper's iterative head/subtract algorithm on one
// value-equivalence group, in place of the group's list order. A group
// whose periods arrive sorted and non-overlapping is recognized in a linear
// pre-scan and returned outright.
func rdupTGroup(rows []row, t1, t2 int) []row {
	if sortedDisjoint(rows) {
		return rows // no overlaps exist: nothing to eliminate
	}
	for i := 0; i < len(rows); i++ {
		head := rows[i]
		for {
			j := -1
			for x := i + 1; x < len(rows); x++ {
				if rows[x].p.Overlaps(head.p) {
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
				repl = append(repl, row{orig: rows[j].orig, t: rows[j].t.WithPeriodAt(t1, t2, f), p: f})
			}
			rows = append(rows[:j], append(repl, rows[j+1:]...)...)
		}
	}
	return rows
}

// groupEmitter adapts a group-local row transform into a groupIter emit
// function for the streaming contiguous-groups path.
func groupEmitter(t1, t2 int, transform func([]row, int, int) []row) func([]relation.Tuple) ([]relation.Tuple, error) {
	return func(group []relation.Tuple) ([]relation.Tuple, error) {
		rows := make([]row, len(group))
		for i, t := range group {
			rows[i] = row{orig: i, t: t, p: t.PeriodAt(t1, t2)}
		}
		rows = transform(rows, t1, t2)
		out := make([]relation.Tuple, len(rows))
		for i, rw := range rows {
			out[i] = rw.t
		}
		return out, nil
	}
}

// buildTRdup compiles rdupᵀ: partition by value-equivalence, then run the
// paper's iterative head/subtract algorithm group-locally. Rows of
// different groups never interact and in-place replacement preserves their
// relative order, so the group-local runs compose into exactly the
// reference's global result at O(Σ g²) instead of O(n²). An input whose
// delivered order keeps value groups contiguous streams group-at-a-time
// with no hash table and no global materialization; otherwise the input
// drains into one batch and hash-partitions off the column planes.
func (e *Engine) buildTRdup(n algebra.Node) (*source, error) {
	in, err := e.build(n.Children()[0])
	if err != nil {
		return nil, err
	}
	if _, err := n.Schema(); err != nil {
		return nil, err
	}
	order := in.order.TimeFreePrefix()
	t1, t2 := in.schema.TimeIndices()
	vidx := physical.ValueIdx(in.schema)
	if e.parallel() && !e.budgeted() {
		return e.parallelValueGroupSource(in, vidx, order, rdupTGroup), nil
	}
	if !e.opts.NoMerge && physical.GroupsContiguous(in.order, in.schema, vidx) {
		e.stats.MergeOps++
		emit := groupEmitter(t1, t2, func(rows []row, t1, t2 int) []row { return rdupTGroup(rows, t1, t2) })
		return &source{it: &groupIter{in: in.it, idx: vidx, emit: emit}, schema: in.schema, order: order}, nil
	}
	if e.budgeted() {
		return e.graceGroupSource(in, vidx, in.schema, order, func(part []prow) ([]tagged, error) {
			return valueGroupPartition(part, vidx, t1, t2, rdupTGroup), nil
		}), nil
	}
	return e.vecValueGroupSource(in, vidx, order, rdupTSpans), nil
}

// sortedDisjoint reports that a group's periods are non-empty, sorted by
// start, and pairwise non-overlapping — the shape left behind by a prior
// rdupᵀ or a sort, under which overlap-driven work is provably absent.
func sortedDisjoint(rows []row) bool {
	for i, rw := range rows {
		if rw.p.Empty() {
			return false
		}
		if i > 0 && rw.p.Start < rows[i-1].p.End {
			return false
		}
	}
	return true
}

// coalTGroup coalesces one value-equivalence group. A group whose periods
// are sorted and non-overlapping merges in one pass; otherwise the
// reference's iterative merge runs group-locally.
func coalTGroup(rows []row, t1, t2 int) []row {
	if sortedDisjoint(rows) {
		return coalesceOnePass(rows, t1, t2)
	}
	for i := 0; i < len(rows); {
		merged := false
		for j := i + 1; j < len(rows); j++ {
			if !rows[i].p.Adjacent(rows[j].p) {
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
	return rows
}

// buildCoal compiles coalᵀ: group-local adjacency merging (the engine never
// sorts first — coalescing is not confluent under reordering, so that would
// change the result multiset, not just its order). An input whose delivered
// order keeps value groups contiguous streams group-at-a-time; otherwise
// the input is materialized and hash-partitioned.
func (e *Engine) buildCoal(n algebra.Node) (*source, error) {
	in, err := e.build(n.Children()[0])
	if err != nil {
		return nil, err
	}
	if _, err := n.Schema(); err != nil {
		return nil, err
	}
	order := in.order.TimeFreePrefix()
	t1, t2 := in.schema.TimeIndices()
	vidx := physical.ValueIdx(in.schema)
	if e.parallel() && !e.budgeted() {
		return e.parallelValueGroupSource(in, vidx, order, coalTGroup), nil
	}
	if !e.opts.NoMerge && physical.GroupsContiguous(in.order, in.schema, vidx) {
		e.stats.MergeOps++
		emit := groupEmitter(t1, t2, coalTGroup)
		return &source{it: &groupIter{in: in.it, idx: vidx, emit: emit}, schema: in.schema, order: order}, nil
	}
	if e.budgeted() {
		return e.graceGroupSource(in, vidx, in.schema, order, func(part []prow) ([]tagged, error) {
			return valueGroupPartition(part, vidx, t1, t2, coalTGroup), nil
		}), nil
	}
	return e.vecValueGroupSource(in, vidx, order, coalTSpans), nil
}

// coalesceOnePass merges a sorted, non-overlapping group in a single sweep.
// Under sortedDisjoint the first later adjacent row is always the immediate
// successor and merging preserves the invariant, so this reproduces the
// iterative algorithm exactly.
func coalesceOnePass(rows []row, t1, t2 int) []row {
	if len(rows) == 0 {
		return rows
	}
	out := rows[:0:0]
	cur := rows[0]
	dirty := false
	for _, rw := range rows[1:] {
		if cur.p.End == rw.p.Start {
			cur.p.End = rw.p.End
			dirty = true
			continue
		}
		if dirty {
			cur.t = cur.t.WithPeriodAt(t1, t2, cur.p)
		}
		out = append(out, cur)
		cur = rw
		dirty = false
	}
	if dirty {
		cur.t = cur.t.WithPeriodAt(t1, t2, cur.p)
	}
	return append(out, cur)
}

// buildTDiff compiles the temporal difference \ᵀ with exact per-snapshot
// semantics: both sides hash-partition by value equivalence, each left
// group's timeline decomposes into elementary intervals where the matching
// right group's multiplicity forms a budget, and surviving fragments of each
// left tuple re-emit in left list order — the reference's algorithm with
// tuple hashes in place of string keys.
func (e *Engine) buildTDiff(n algebra.Node) (*source, error) {
	l, r, err := e.buildBoth(n)
	if err != nil {
		return nil, err
	}
	if _, err := n.Schema(); err != nil {
		return nil, err
	}
	order := l.order.TimeFreePrefix()
	if e.budgeted() {
		return e.graceTDiffSource(l, r, order), nil
	}
	if e.parallel() {
		return e.parallelTDiffSource(l, r, order), nil
	}
	return lazySource(l.schema, order, func() ([]relation.Tuple, error) {
		lr, err := drain(l)
		if err != nil {
			return nil, err
		}
		rr, err := drain(r)
		if err != nil {
			return nil, err
		}
		t1, t2 := lr.Schema().TimeIndices()
		vidx := valueIdx(lr.Schema())

		// One shared id space over both sides' value-equivalence keys.
		groups := newHashGroups(vidx, lr.Len()+rr.Len())
		var leftMembers, rightMembers [][]int
		grow := func(fresh bool) {
			if fresh {
				leftMembers = append(leftMembers, nil)
				rightMembers = append(rightMembers, nil)
			}
		}
		for i, t := range lr.Tuples() {
			gid, fresh := groups.groupOf(t)
			grow(fresh)
			leftMembers[gid] = append(leftMembers[gid], i)
		}
		for j, t := range rr.Tuples() {
			gid, fresh := groups.groupOf(t)
			grow(fresh)
			rightMembers[gid] = append(rightMembers[gid], j)
		}

		frag := make([][]period.Period, lr.Len())
		for gid, leftIdx := range leftMembers {
			if len(leftIdx) == 0 {
				continue
			}
			lps := make([]period.Period, len(leftIdx))
			for k, i := range leftIdx {
				lps[k] = lr.PeriodOf(i)
			}
			rps := make([]period.Period, len(rightMembers[gid]))
			for k, j := range rightMembers[gid] {
				rps[k] = rr.PeriodOf(j)
			}
			for k, fs := range tdiffGroupFragments(lps, rps) {
				frag[leftIdx[k]] = fs
			}
		}

		var out []relation.Tuple
		for i, t := range lr.Tuples() {
			for _, p := range frag[i] {
				out = append(out, t.WithPeriodAt(t1, t2, p))
			}
		}
		return out, nil
	}), nil
}

// buildTUnion compiles the temporal union ∪ᵀ: all of the left list followed
// by, per right value group in first-occurrence order, the maximal periods
// over which the right multiplicity exceeds the left's, layer by layer.
func (e *Engine) buildTUnion(n algebra.Node) (*source, error) {
	l, r, err := e.buildBoth(n)
	if err != nil {
		return nil, err
	}
	if _, err := n.Schema(); err != nil {
		return nil, err
	}
	if e.budgeted() {
		return e.graceTUnionSource(l, r), nil
	}
	if e.parallel() {
		return e.parallelTUnionSource(l, r), nil
	}
	return lazySource(l.schema, nil, func() ([]relation.Tuple, error) {
		lr, err := drain(l)
		if err != nil {
			return nil, err
		}
		rr, err := drain(r)
		if err != nil {
			return nil, err
		}
		t1, t2 := lr.Schema().TimeIndices()
		vidx := valueIdx(lr.Schema())

		groups := newHashGroups(vidx, lr.Len()+rr.Len())
		var leftMembers, rightMembers [][]int
		grow := func(fresh bool) {
			if fresh {
				leftMembers = append(leftMembers, nil)
				rightMembers = append(rightMembers, nil)
			}
		}
		for i, t := range lr.Tuples() {
			gid, fresh := groups.groupOf(t)
			grow(fresh)
			leftMembers[gid] = append(leftMembers[gid], i)
		}
		var rOrder []int // right groups in first right occurrence order
		for j, t := range rr.Tuples() {
			gid, fresh := groups.groupOf(t)
			grow(fresh)
			if len(rightMembers[gid]) == 0 {
				rOrder = append(rOrder, gid)
			}
			rightMembers[gid] = append(rightMembers[gid], j)
		}

		out := make([]relation.Tuple, 0, lr.Len())
		out = append(out, lr.Tuples()...)
		for _, gid := range rOrder {
			lps := make([]period.Period, len(leftMembers[gid]))
			for k, i := range leftMembers[gid] {
				lps[k] = lr.PeriodOf(i)
			}
			rps := make([]period.Period, len(rightMembers[gid]))
			for k, j := range rightMembers[gid] {
				rps[k] = rr.PeriodOf(j)
			}
			rep := rr.At(rightMembers[gid][0])
			for _, p := range tunionExtraPeriods(lps, rps) {
				out = append(out, rep.WithPeriodAt(t1, t2, p))
			}
		}
		return out, nil
	}), nil
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
// (each group's constant intervals are computed and emitted the moment the
// group ends); otherwise the input materializes and hash-partitions.
func (e *Engine) buildTAggregate(n *algebra.Aggregate) (*source, error) {
	in, err := e.build(n.Children()[0])
	if err != nil {
		return nil, err
	}
	outSchema, err := n.Schema()
	if err != nil {
		return nil, err
	}
	gidx := make([]int, len(n.GroupBy))
	for i, g := range n.GroupBy {
		gidx[i] = in.schema.Index(g)
	}
	order := eval.OrderAfterGroup(in.order, n.GroupBy)
	t1, t2 := in.schema.TimeIndices()
	groupOut := func(group []relation.Tuple) ([]relation.Tuple, error) {
		ps := make([]period.Period, len(group))
		for x, t := range group {
			ps[x] = t.PeriodAt(t1, t2)
		}
		var out []relation.Tuple
		for _, iv := range period.ElementaryIntervals(ps) {
			accs := eval.NewAccumulators(n.Aggs, in.schema)
			live := 0
			for x, t := range group {
				if !ps[x].ContainsPeriod(iv) {
					continue
				}
				live++
				if err := eval.FoldAggregates(accs, n.Aggs, in.schema, t); err != nil {
					return nil, err
				}
			}
			if live == 0 {
				continue
			}
			nt := make(relation.Tuple, 0, outSchema.Len())
			for _, gi := range gidx {
				nt = append(nt, group[0][gi])
			}
			for _, acc := range accs {
				nt = append(nt, acc.Result())
			}
			nt = append(nt, value.Time(iv.Start), value.Time(iv.End))
			out = append(out, nt)
		}
		return out, nil
	}
	if e.parallel() && !e.budgeted() && len(gidx) > 0 {
		return e.parallelGroupAggSource(in, gidx, outSchema, order, groupOut), nil
	}
	if !e.opts.NoMerge && physical.GroupsContiguous(in.order, in.schema, gidx) {
		e.stats.MergeOps++
		return &source{
			it:     &groupIter{in: in.it, idx: gidx, emit: groupOut},
			schema: outSchema,
			order:  order,
		}, nil
	}
	if e.budgeted() && len(gidx) > 0 {
		// A GROUP-BY-less 𝒢ᵀ is one global group whose constant intervals
		// need every row at once — nothing to partition on; it stays on the
		// materializing path below (documented bound exemption).
		return e.graceGroupSource(in, gidx, outSchema, order, func(part []prow) ([]tagged, error) {
			return groupAggPartition(part, gidx, groupOut)
		}), nil
	}
	return e.vecGroupEmitSource(in, gidx, outSchema, order, groupOut), nil
}

package exec

import (
	"math"
	"slices"

	"tqp/internal/algebra"
	"tqp/internal/column"
	"tqp/internal/eval"
	"tqp/internal/period"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// sweep is the scratch of the temporal multiplicity sweep. rdupᵀ, \ᵀ, ∪ᵀ
// and 𝒢ᵀ are defined per value-equivalence group on the periods alone
// (Sections 2.4–2.5): each input is a step function from time to
// multiplicity, constant between consecutive distinct endpoints of the
// group's non-empty periods (the elementary intervals), and each operator
// combines those functions pointwise. A body creates one sweep per call and
// resets its buffers per group, so a partition costs the same few buffers
// however many groups it holds.
type sweep struct {
	ps   [2][]period.Period // the group's periods per side, in list order
	ends []period.Chronon   // the group's distinct endpoints, ascending
	cnt  [2][]int           // per elementary interval: a side's multiplicity

	// The fragments each partition row keeps: row k's are
	// frag[off[k] : off[k]+n[k]], written group by group, read in list order.
	frag   []period.Period
	off, n []int
}

// newSweep returns the scratch of a body whose rows keep fragments.
func newSweep(rows int) *sweep {
	return &sweep{frag: make([]period.Period, 0, rows), off: make([]int, rows), n: make([]int, rows)}
}

// load reads the periods of p's rows at positions ks as side's input.
func (s *sweep) load(side int, p part, ks []int, t1, t2 int) []period.Period {
	ps := s.ps[side][:0]
	for _, k := range ks {
		ps = append(ps, p.b.PeriodAt(t1, t2, p.rows[k]))
	}
	s.ps[side] = ps
	return ps
}

// timeline sets the elementary intervals of the loaded periods — interval x
// is [ends[x], ends[x+1]) — and returns their count.
func (s *sweep) timeline() int {
	s.ends = period.EndpointsInto(s.ends, s.ps[:]...)
	return max(len(s.ends)-1, 0)
}

// at returns the elementary interval that starts at endpoint t.
func (s *sweep) at(t period.Chronon) int {
	x, _ := slices.BinarySearch(s.ends, t)
	return x
}

// count returns side's multiplicity on every elementary interval, one entry
// per endpoint (the last, past every interval, is 0): +1 at each non-empty
// period's start, −1 at its end, prefix-summed.
func (s *sweep) count(side int) []int {
	c := slices.Grow(s.cnt[side][:0], len(s.ends))[:len(s.ends)]
	clear(c)
	for _, p := range s.ps[side] {
		if !p.Empty() {
			c[s.at(p.Start)]++
			c[s.at(p.End)]--
		}
	}
	for x := 1; x < len(c); x++ {
		c[x] += c[x-1]
	}
	s.cnt[side] = c
	return c
}

// keep walks the elementary intervals of row k's non-empty period p: one
// with budget left spends a unit and is lost to the row; any other is kept,
// and claim then gives it an unlimited budget every later row spends.
// Consecutive kept intervals fuse into maximal fragments, row k's.
func (s *sweep) keep(k int, p period.Period, budget []int, claim bool) {
	s.off[k] = len(s.frag)
	var cur period.Period
	for x := s.at(p.Start); s.ends[x] < p.End; x++ {
		if budget[x] > 0 {
			budget[x]--
			if !cur.Empty() {
				s.frag = append(s.frag, cur)
				cur = period.Period{}
			}
			continue
		}
		if claim {
			budget[x] = math.MaxInt
		}
		if cur.Empty() {
			cur.Start = s.ends[x]
		}
		cur.End = s.ends[x+1]
	}
	if !cur.Empty() {
		s.frag = append(s.frag, cur)
	}
	s.n[k] = len(s.frag) - s.off[k]
}

// record records p as row k's one fragment.
func (s *sweep) record(k int, p period.Period) {
	s.off[k], s.n[k] = len(s.frag), 1
	s.frag = append(s.frag, p)
}

// fragments emits the kept fragments of p's rows in list order.
func (s *sweep) fragments(p part) emitted {
	rows, per := make([]int, 0, len(s.frag)), make([]period.Period, 0, len(s.frag))
	for k, i := range p.rows {
		for _, f := range s.frag[s.off[k] : s.off[k]+s.n[k]] {
			rows, per = append(rows, i), append(per, f)
		}
	}
	return emitted{part: part{b: p.b, rows: rows, seqs: p.seqs}, per: per}
}

// pairGroups groups one partition pair's rows into a shared
// value-equivalence id space: group g's members are l.members(g) and
// r.members(g), and rOf[k] is right position k's group. An empty rp groups
// by groupRows, hash-free when contiguous.
func pairGroups(lp, rp part, vidx []int, contiguous bool) (l, r csrGroups, rOf []int) {
	if len(rp.rows) == 0 {
		l = groupRows(lp, vidx, contiguous)
		return l, csrGroups{off: make([]int, l.count()+1)}, nil
	}
	groups := newVecGroups(vidx, len(lp.rows)+len(rp.rows))
	of := make([]int, len(lp.rows)+len(rp.rows))
	lOf, rOf := of[:len(lp.rows)], of[len(lp.rows):]
	for k, i := range lp.rows {
		lOf[k], _ = groups.groupOf(lp.b, i)
	}
	for k, i := range rp.rows {
		rOf[k], _ = groups.groupOf(rp.b, i)
	}
	return csrOf(lOf, groups.size()), csrOf(rOf, groups.size()), rOf
}

// buildValueGroup compiles rdupᵀ or coalᵀ from its partition body, grouped
// by value equivalence. (The engine never sorts first — coalescing is not
// confluent under reordering, so that would change the result multiset.)
func (e *Engine) buildValueGroup(in *source, body func(vidx []int, t1, t2 int, contiguous bool) partBody) *source {
	t1, t2 := in.schema.TimeIndices()
	vidx := valueIdx(in.schema)
	return e.groupSource(in, vidx, in.schema, func(contiguous bool) partBody { return body(vidx, t1, t2, contiguous) })
}

// vspan is one period of a value-equivalence group during coalescing: the
// row its values come from (its position in the partition) plus its current
// period.
type vspan struct {
	src int
	p   period.Period
}

// spansSortedDisjoint reports that a group's periods are non-empty, sorted
// by start, and pairwise non-overlapping — the shape left behind by a prior
// rdupᵀ or a sort, under which overlap-driven work is provably absent.
func spansSortedDisjoint(ss []vspan) bool {
	for i, s := range ss {
		if s.p.Empty() {
			return false
		}
		if i > 0 && s.p.Start < ss[i-1].p.End {
			return false
		}
	}
	return true
}

// coalTSpans coalesces one value-equivalence group, the merged span keeping
// the earlier row's values. A group whose periods are sorted and
// non-overlapping merges in one pass; otherwise the reference's iterative
// merge runs group-locally.
func coalTSpans(ss []vspan) []vspan {
	if spansSortedDisjoint(ss) {
		return coalesceOnePassSpans(ss)
	}
	for i := 0; i < len(ss); {
		merged := false
		for j := i + 1; j < len(ss); j++ {
			if !ss[i].p.Adjacent(ss[j].p) {
				continue
			}
			u, _ := ss[i].p.Union(ss[j].p)
			ss[i].p = u
			ss = append(ss[:j], ss[j+1:]...)
			merged = true
			break
		}
		if !merged {
			i++
		}
	}
	return ss
}

// coalesceOnePassSpans merges a sorted, non-overlapping group in a single
// sweep. Under spansSortedDisjoint the first later adjacent span is always
// the immediate successor and merging preserves the invariant, so this
// reproduces the iterative algorithm exactly.
func coalesceOnePassSpans(ss []vspan) []vspan {
	if len(ss) == 0 {
		return ss
	}
	out := ss[:0] // writes trail the reads: merging in place is safe
	cur := ss[0]
	for _, s := range ss[1:] {
		if cur.p.End == s.p.Start {
			cur.p.End = s.p.End
			continue
		}
		out = append(out, cur)
		cur = s
	}
	return append(out, cur)
}

// coalTBody is the partition body of coalᵀ, which merges adjacent periods
// and is no multiplicity combiner: per value group coalTSpans over one
// reused span buffer, each surviving span its row's one fragment. Groups
// never interact, so the group-local runs compose into exactly the
// reference's global result at O(Σ g²) instead of O(n²).
func coalTBody(vidx []int, t1, t2 int, contiguous bool) partBody {
	return func(p, _ part) ([]emitted, error) {
		groups := groupRows(p, vidx, contiguous)
		s := newSweep(len(p.rows))
		var ss []vspan
		for g := range groups.count() {
			ss = ss[:0]
			for _, k := range groups.members(g) {
				ss = append(ss, vspan{src: k, p: p.b.PeriodAt(t1, t2, p.rows[k])})
			}
			for _, sp := range coalTSpans(ss) {
				s.record(sp.src, sp.p)
			}
		}
		return []emitted{s.fragments(p)}, nil
	}
}

// keepBody is the partition body of \ᵀ and rdupᵀ: per value group the left
// rows, in list order, walk their own elementary intervals and keep what
// the budget leaves them, re-emitted at their places. For \ᵀ,
// max(cₗ − cᵣ, 0), the budget is the right multiplicity, the earliest left
// rows absorb it, and empty periods vanish. For rdupᵀ, min(c, 1), it is what
// earlier rows claimed — each interval belongs to the earliest row covering
// it, as the paper's head/subtract iteration leaves it — and a row with an
// empty period overlaps nothing and keeps it.
func keepBody(vidx []int, t1, t2 int, contiguous, rdup bool) partBody {
	return func(lp, rp part) ([]emitted, error) {
		l, r, _ := pairGroups(lp, rp, vidx, contiguous)
		s := newSweep(len(lp.rows))
		for g := range l.count() {
			ks := l.members(g)
			lps := s.load(0, lp, ks, t1, t2)
			s.load(1, rp, r.members(g), t1, t2)
			s.timeline()
			budget := s.count(1)
			for x, k := range ks {
				if !lps[x].Empty() {
					s.keep(k, lps[x], budget, rdup)
				} else if rdup {
					s.record(k, lps[x])
				}
			}
		}
		return []emitted{s.fragments(lp)}, nil
	}
}

// rdupTBody is rdupᵀ's keepBody, tdiffBody \ᵀ's.
func rdupTBody(vidx []int, t1, t2 int, contiguous bool) partBody {
	return keepBody(vidx, t1, t2, contiguous, true)
}

func tdiffBody(vidx []int, t1, t2 int) partBody { return keepBody(vidx, t1, t2, false, false) }

// tunionBody is the partition body of ∪ᵀ: the left rows pass through whole,
// and behind them follow, per right value group in first-right-occurrence
// order and on its first right row, the maximal periods of each layer of
// the excess max(cᵣ − cₗ, 0), layer by layer, then by timeline.
func tunionBody(vidx []int, t1, t2 int) partBody {
	return func(lp, rp part) ([]emitted, error) {
		l, r, rOf := pairGroups(lp, rp, vidx, false)
		var s sweep
		var rows []int
		var per []period.Period
		for k, g := range rOf {
			if ks := r.members(g); ks[0] != k {
				continue // not the group's first right row
			}
			s.load(0, lp, l.members(g), t1, t2)
			s.load(1, rp, r.members(g), t1, t2)
			m := s.timeline()
			cl, extra := s.count(0), s.count(1)
			top := 0
			for x := range m {
				extra[x] = max(extra[x]-cl[x], 0)
				top = max(top, extra[x])
			}
			for layer := 1; layer <= top; layer++ {
				var cur period.Period
				for x := range m + 1 { // extra[m] is 0: it flushes the last run
					if extra[x] >= layer {
						if cur.Empty() {
							cur.Start = s.ends[x]
						}
						cur.End = s.ends[x+1]
					} else if !cur.Empty() {
						rows, per = append(rows, rp.rows[k]), append(per, cur)
						cur = period.Period{}
					}
				}
			}
		}
		return []emitted{
			{part: lp},
			{part: part{b: rp.b, rows: rows, seqs: rp.seqs}, off: afterLeft, per: per},
		}, nil
	}
}

// buildTPair compiles a two-sided temporal operator (\ᵀ, ∪ᵀ) from its
// partition body: both sides partition by value equivalence — the
// reference's algorithm with row hashes in place of string keys.
func (e *Engine) buildTPair(l, r *source, body func(vidx []int, t1, t2 int) partBody) *source {
	vidx := valueIdx(l.schema)
	t1, t2 := l.schema.TimeIndices()
	return e.keyedSource(&keyedOp{l: l, r: r, lidx: vidx, ridx: vidx, out: l.schema, body: body(vidx, t1, t2)})
}

// buildTAggregate compiles 𝒢ᵀ. A GROUP-BY-less 𝒢ᵀ is one global group
// whose constant intervals need every row at once: with no key the driver
// never partitions it.
func (e *Engine) buildTAggregate(n *algebra.Aggregate, in *source, outSchema *schema.Schema) *source {
	gidx := make([]int, len(n.GroupBy))
	for i, g := range n.GroupBy {
		gidx[i] = in.schema.Index(g)
	}
	return e.groupSource(in, gidx, outSchema, func(contiguous bool) partBody {
		return tAggregateBody(n, in.schema, gidx, contiguous, outSchema)
	})
}

// tAggregateBody is the partition body of 𝒢ᵀ, whose combiner is the
// aggregate over the active rows: grouping in first-occurrence order, then
// per group one result row per elementary interval with active rows, folding
// them in member order — the reference's constant-interval evaluation.
func tAggregateBody(n *algebra.Aggregate, in *schema.Schema, gidx []int, contiguous bool, out *schema.Schema) partBody {
	t1, t2 := in.TimeIndices()
	fresh := eval.NewAccumulators(n.Aggs, in) // read-only: copied to reset
	emit := func(p part, members []int, sc *groupScratch, ob *column.Batch) error {
		s := &sc.sweep
		ps := s.load(0, p, members, t1, t2)
		m := s.timeline()
		for x := range m {
			if x == len(sc.accs) {
				sc.accs = append(sc.accs, eval.NewAccumulators(n.Aggs, in))
			}
			for i, acc := range sc.accs[x] {
				*acc = *fresh[i]
			}
		}
		// Each row folds into every interval it covers: in member order
		// per interval, reading the row once.
		for j, pj := range ps {
			if pj.Empty() {
				continue
			}
			p.b.FillRow(sc.row, p.rows[members[j]])
			for x := s.at(pj.Start); s.ends[x] < pj.End; x++ {
				if err := eval.FoldAggregates(sc.accs[x], n.Aggs, in, sc.row); err != nil {
					return err
				}
			}
		}
		for x, live := range s.count(0)[:m] {
			if live == 0 {
				continue
			}
			appendGroupRow(ob, p.b, p.rows[members[0]], gidx, sc.accs[x])
			w := len(ob.Cols)
			ob.Cols[w-2].Append(value.Time(s.ends[x]))
			ob.Cols[w-1].Append(value.Time(s.ends[x+1]))
		}
		return nil
	}
	return groupEmitBody(gidx, contiguous, out, emit)
}

package exec

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"tqp/internal/algebra"
	"tqp/internal/column"
	"tqp/internal/eval"
	"tqp/internal/period"
	"tqp/internal/physical"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// sweep is the scratch of the temporal multiplicity sweep. rdupᵀ, \ᵀ, ∪ᵀ
// and 𝒢ᵀ are defined per value-equivalence group on the periods alone
// (Sections 2.4–2.5): each input is a step function from time to
// multiplicity, constant between consecutive distinct endpoints of the
// group's non-empty periods (the elementary intervals), and each operator
// combines those functions pointwise. timeline sorts the group's endpoint
// events once, and one pass over the sorted events writes the distinct
// endpoints and every loaded period's start and end rank among them: the
// counting sweep, keep and 𝒢ᵀ's fold walk ranks and never search. A body
// call owns one sweep (its pooled scratch) and resets the buffers per
// group, so a partition costs the same few buffers however many groups it
// holds. \ᵀ over a snapshot-distinct left sorts no endpoints: union folds
// each group's right periods in the right side's buffer, and minus records
// what each left row keeps of its period.
type sweep struct {
	ps   [2][]period.Period // the group's periods per side, in list order
	ends []period.Chronon   // the group's distinct endpoints, ascending
	// rank[2r] and rank[2r+1] are the start and end ranks in ends of loaded
	// period r — side 0's periods first, then side 1's — set for the
	// non-empty ones.
	rank []int32
	evs  []event  // the timeline's endpoint events
	keys []uint64 // the events packed for their sort
	cnt  [2][]int // per elementary interval: a side's multiplicity

	// The fragments each partition row keeps: row k's are
	// frag[off[k] : off[k]+n[k]], written group by group, read in list order.
	frag   []period.Period
	off, n []int32
}

// event is one endpoint of a loaded period: its chronon and its rank slot.
type event struct {
	t   period.Chronon
	ref int32
}

// reset readies the sweep for a body whose rows rows keep fragments.
func (s *sweep) reset(rows int) {
	s.frag = s.frag[:0]
	s.off, s.n = resize(s.off, rows), resize(s.n, rows)
	clear(s.n)
}

// load reads the periods of p's rows at positions ks as side's input.
func (s *sweep) load(side int, p part, ks []int32, t1, t2 int) []period.Period {
	ps := s.ps[side][:0]
	for _, k := range ks {
		ps = append(ps, p.b.PeriodAt(t1, t2, p.rows[k]))
	}
	s.ps[side] = ps
	return ps
}

// timeline sets the elementary intervals of the loaded periods — interval x
// is [ends[x], ends[x+1]) — and every non-empty period's ranks, and returns
// the interval count: the (chronon, rank slot) events sort once, and one
// pass over them writes both.
func (s *sweep) timeline() int {
	s.rank = resize(s.rank, 2*(len(s.ps[0])+len(s.ps[1])))
	s.ends = s.ends[:0]
	evs := s.evs[:0]
	lo, hi, ref := period.Chronon(math.MaxInt64), period.Chronon(math.MinInt64), int32(0)
	for _, ps := range s.ps {
		for _, p := range ps {
			if !p.Empty() {
				evs = append(evs, event{p.Start, ref}, event{p.End, ref + 1})
				lo, hi = min(lo, p.Start), max(hi, p.End)
			}
			ref += 2
		}
	}
	s.evs = evs
	s.sortEvents(lo, hi)
	for k, ev := range evs {
		if k == 0 || ev.t != evs[k-1].t {
			s.ends = append(s.ends, ev.t)
		}
		s.rank[ev.ref] = int32(len(s.ends) - 1)
	}
	return max(len(s.ends)-1, 0)
}

// sortEvents sorts the events, whose chronons lie in [lo, hi], by chronon.
// Packed one to a word — the chronon's offset from lo above the slot —
// they sort through slices.Sort, whose compares inline; a group spanning
// too far to leave the slot room (chronons at the time domain's bounds)
// sorts them as pairs.
func (s *sweep) sortEvents(lo, hi period.Chronon) {
	shift := uint(bits.Len(uint(len(s.rank))))
	if bits.Len64(uint64(hi)-uint64(lo)) > 64-int(shift) {
		slices.SortFunc(s.evs, func(a, b event) int { return cmp.Compare(a.t, b.t) })
		return
	}
	keys := s.keys[:0]
	for _, ev := range s.evs {
		keys = append(keys, uint64(ev.t-lo)<<shift|uint64(ev.ref))
	}
	slices.Sort(keys)
	for k, key := range keys {
		s.evs[k] = event{lo + period.Chronon(key>>shift), int32(key & (1<<shift - 1))}
	}
	s.keys = keys
}

// span returns the ranks of side's loaded period j, non-empty: it covers
// the elementary intervals [lo, hi).
func (s *sweep) span(side, j int) (lo, hi int) {
	r := 2 * (j + side*len(s.ps[0]))
	return int(s.rank[r]), int(s.rank[r+1])
}

// count returns side's multiplicity on every elementary interval, one entry
// per endpoint (the last, past every interval, is 0): +1 at each non-empty
// period's start, −1 at its end, prefix-summed.
func (s *sweep) count(side int) []int {
	c := resize(s.cnt[side], len(s.ends))
	clear(c)
	for j, p := range s.ps[side] {
		if !p.Empty() {
			lo, hi := s.span(side, j)
			c[lo]++
			c[hi]--
		}
	}
	for x := 1; x < len(c); x++ {
		c[x] += c[x-1]
	}
	s.cnt[side] = c
	return c
}

// keep walks the elementary intervals [lo, hi) of row k's non-empty
// period: one with budget left spends a unit and is lost to the row; any
// other is kept, and claim then gives it an unlimited budget every later
// row spends. Consecutive kept intervals fuse into maximal fragments, row
// k's.
func (s *sweep) keep(k, lo, hi int, budget []int, claim bool) {
	s.off[k] = int32(len(s.frag))
	var cur period.Period
	for x := lo; x < hi; x++ {
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
	s.n[k] = int32(len(s.frag)) - s.off[k]
}

// union folds the non-empty periods of rp's rows at positions ks, sorted
// by start, into their union: disjoint, non-adjacent periods, ascending.
// It works in the right side's period buffer.
func (s *sweep) union(rp part, ks []int32, t1, t2 int) []period.Period {
	ps := s.ps[1][:0]
	for _, k := range ks {
		if p := rp.b.PeriodAt(t1, t2, rp.rows[k]); !p.Empty() {
			ps = append(ps, p)
		}
	}
	slices.SortFunc(ps, func(a, b period.Period) int { return cmp.Compare(a.Start, b.Start) })
	out := ps[:0] // writes trail the reads: folding in place is safe
	for _, p := range ps {
		if n := len(out); n > 0 && p.Start <= out[n-1].End {
			out[n-1].End = max(out[n-1].End, p.End)
			continue
		}
		out = append(out, p)
	}
	s.ps[1] = ps
	return out
}

// minus records row k's fragments: p minus the union cover, ascending (an
// empty p keeps nothing).
func (s *sweep) minus(k int, p period.Period, cover []period.Period) {
	s.off[k] = int32(len(s.frag))
	// From the first cover period ending after p starts, each one that
	// starts before p ends cuts p.
	x := 0
	for x < len(cover) && cover[x].End <= p.Start {
		x++
	}
	cur := p.Start
	for ; x < len(cover) && cover[x].Start < p.End; x++ {
		if cover[x].Start > cur {
			s.frag = append(s.frag, period.Period{Start: cur, End: cover[x].Start})
		}
		cur = cover[x].End
	}
	if cur < p.End {
		s.frag = append(s.frag, period.Period{Start: cur, End: p.End})
	}
	s.n[k] = int32(len(s.frag)) - s.off[k]
}

// record records p as row k's one fragment.
func (s *sweep) record(k int, p period.Period) {
	s.off[k], s.n[k] = int32(len(s.frag)), 1
	s.frag = append(s.frag, p)
}

// fragments emits the kept fragments of p's rows in list order, written
// into a pooled fragment buffer the emitted stretch carries to the gather.
func (s *sweep) fragments(p part) emitted {
	fb := getFragBuf(len(s.frag))
	for k, i := range p.rows {
		for _, f := range s.frag[s.off[k] : s.off[k]+s.n[k]] {
			fb.rows, fb.per = append(fb.rows, i), append(fb.per, f)
		}
	}
	return fb.over(p.b, p.seqs)
}

// buildValueGroup compiles rdupᵀ or coalᵀ from its partition body, grouped
// by value equivalence. (The engine never sorts first — coalescing is not
// confluent under reordering, so that would change the result multiset.)
func (e *Engine) buildValueGroup(d physical.Decision, in *source, body func(vidx []int, t1, t2 int, contiguous bool) partBody) *source {
	t1, t2 := in.schema.TimeIndices()
	return e.groupSource(in, d, in.schema, body(d.Keys, t1, t2, d.Contiguous))
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
		sc := getScratch()
		defer sc.release()
		groups := sc.groupRows(p, vidx, contiguous)
		s := &sc.sweep
		s.reset(len(p.rows))
		ss := sc.spans
		for g := range groups.count() {
			ss = ss[:0]
			for _, k := range groups.members(g) {
				ss = append(ss, vspan{src: int(k), p: p.b.PeriodAt(t1, t2, p.rows[k])})
			}
			for _, sp := range coalTSpans(ss) {
				s.record(sp.src, sp.p)
			}
		}
		sc.spans = ss
		return []emitted{s.fragments(p)}, nil
	}
}

// keepBody is the partition body of rdupᵀ and of \ᵀ over a left not
// known snapshot-distinct (physical.AlgoHashPart): per value group the left
// rows, in list order, walk their own elementary intervals and keep what
// the budget leaves them, re-emitted at their places. For \ᵀ,
// max(cₗ − cᵣ, 0), the budget is the right multiplicity, the earliest left
// rows absorb it, and empty periods vanish. For rdupᵀ, min(c, 1), it is what
// earlier rows claimed — each interval belongs to the earliest row covering
// it, as the paper's head/subtract iteration leaves it — and a row with an
// empty period overlaps nothing and keeps it. contiguous is the left's
// (pairGroups); a group of right rows alone keeps nothing.
func keepBody(vidx []int, t1, t2 int, contiguous, rdup bool) partBody {
	return func(lp, rp part) ([]emitted, error) {
		sc := getScratch()
		defer sc.release()
		l, r, _ := sc.pairGroups(lp, rp, vidx, contiguous)
		s := &sc.sweep
		s.reset(len(lp.rows))
		for g := range l.count() {
			ks := l.members(g)
			if len(ks) == 0 {
				continue
			}
			lps := s.load(0, lp, ks, t1, t2)
			s.load(1, rp, r.members(g), t1, t2)
			s.timeline()
			budget := s.count(1)
			for x, k := range ks {
				if !lps[x].Empty() {
					lo, hi := s.span(0, x)
					s.keep(int(k), lo, hi, budget, rdup)
				} else if rdup {
					s.record(int(k), lps[x])
				}
			}
		}
		return []emitted{s.fragments(lp)}, nil
	}
}

// rdupTBody is rdupᵀ's keepBody, sweepDiffBody \ᵀ's.
func rdupTBody(vidx []int, t1, t2 int, contiguous bool) partBody {
	return keepBody(vidx, t1, t2, contiguous, true)
}

func sweepDiffBody(vidx []int, t1, t2 int, contiguous bool) partBody {
	return keepBody(vidx, t1, t2, contiguous, false)
}

// minusUnionBody is the partition body of \ᵀ over a snapshot-distinct left
// (physical.AlgoMinusUnion): per value group the right's non-empty periods
// fold into their union, and each left row keeps its period minus that
// union, fragments ascending; empty periods vanish. The left's claim puts at
// most one of its rows on any instant of a group, so no two rows share the
// right multiplicity keepBody budgets, and this is keepBody's result
// without the group's endpoint sort.
func minusUnionBody(vidx []int, t1, t2 int, contiguous bool) partBody {
	return func(lp, rp part) ([]emitted, error) {
		sc := getScratch()
		defer sc.release()
		l, r, _ := sc.pairGroups(lp, rp, vidx, contiguous)
		s := &sc.sweep
		s.reset(len(lp.rows))
		for g := range l.count() {
			ks := l.members(g)
			if len(ks) == 0 {
				continue
			}
			cover := s.union(rp, r.members(g), t1, t2)
			for _, k := range ks {
				s.minus(int(k), lp.b.PeriodAt(t1, t2, lp.rows[k]), cover)
			}
		}
		return []emitted{s.fragments(lp)}, nil
	}
}

// excessBody is the partition body of ∪ᵀ: the left rows pass through whole,
// and behind them follow, per right value group in first-right-occurrence
// order and on its first right row, the maximal periods of each layer of
// the excess max(cᵣ − cₗ, 0), layer by layer, then by timeline. contiguous
// is the left's (pairGroups).
func excessBody(vidx []int, t1, t2 int, contiguous bool) partBody {
	return func(lp, rp part) ([]emitted, error) {
		sc := getScratch()
		defer sc.release()
		l, r, rOf := sc.pairGroups(lp, rp, vidx, contiguous)
		s := &sc.sweep
		fb := getFragBuf(0)
		for k, g := range rOf {
			if ks := r.members(int(g)); int(ks[0]) != k {
				continue // not the group's first right row
			}
			s.load(0, lp, l.members(int(g)), t1, t2)
			s.load(1, rp, r.members(int(g)), t1, t2)
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
						fb.rows, fb.per = append(fb.rows, rp.rows[k]), append(fb.per, cur)
						cur = period.Period{}
					}
				}
			}
		}
		extra := fb.over(rp.b, rp.seqs)
		extra.off = afterLeft
		return []emitted{{part: lp}, extra}, nil
	}
}

// buildTPair compiles a two-sided temporal operator (\ᵀ, ∪ᵀ) from its
// partition body, built for the decision's left contiguity: both sides
// partition by value equivalence — the reference's algorithm with row
// hashes in place of string keys.
func (e *Engine) buildTPair(d physical.Decision, l, r *source, body func(vidx []int, t1, t2 int, contiguous bool) partBody) *source {
	t1, t2 := l.schema.TimeIndices()
	return e.keyedSource(&keyedOp{l: l, r: r, lidx: d.Keys, ridx: d.RKeys, out: l.schema, body: body(d.Keys, t1, t2, d.Contiguous)})
}

// buildTAggregate compiles 𝒢ᵀ. A GROUP-BY-less 𝒢ᵀ is one global group
// whose constant intervals need every row at once: with no key the driver
// never partitions it.
func (e *Engine) buildTAggregate(n *algebra.Aggregate, d physical.Decision, in *source, outSchema *schema.Schema) *source {
	return e.groupSource(in, d, outSchema, tAggregateBody(n, in.schema, d.Keys, d.Contiguous, outSchema))
}

// tAggregateBody is the partition body of 𝒢ᵀ, whose combiner is the
// aggregate over the active rows: grouping in first-occurrence order, then
// per group one result row per elementary interval with active rows, folding
// them in member order — the reference's constant-interval evaluation.
func tAggregateBody(n *algebra.Aggregate, in *schema.Schema, gidx []int, contiguous bool, out *schema.Schema) partBody {
	t1, t2 := in.TimeIndices()
	fresh := eval.NewAccumulators(n.Aggs, in) // read-only: copied to reset
	emit := func(p part, members []int32, sc *scratch, ob *column.Batch) error {
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
			lo, hi := s.span(0, j)
			for x := lo; x < hi; x++ {
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

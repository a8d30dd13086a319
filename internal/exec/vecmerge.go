// The batch merge operator family: order-spec comparison compiled against
// column planes, adjacent-compare dedup, the two-pointer merge diff/union
// sweeps, the merge join, and sort as a permutation of row indices sorted
// by (key, row index), emitted as one selection view. The compare, equality
// and hash kernels are the exact typed specializations of the canonical
// value semantics, so every operator here reproduces the reference
// evaluator's list.
package exec

import (
	"container/heap"
	"slices"

	"tqp/internal/column"
	"tqp/internal/expr"
	"tqp/internal/period"
	"tqp/internal/physical"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// vecCmp orders row ai of batch a against row bi of batch b (physical
// indices) under a compiled order spec, with the sign contract of
// relation.CompareOn.
type vecCmp func(a *column.Batch, ai int, b *column.Batch, bi int) int

// intPlaneKind reports the kinds stored unboxed on the int64 plane, whose
// payload order is the canonical Compare order for same-kind values.
func intPlaneKind(k value.Kind) bool {
	return k == value.KindInt || k == value.KindBool || k == value.KindTime
}

// compileVecCmp compiles an order spec against a schema into a columnar
// comparator — CompareOn restricted to the spec, computed without
// constructing tuples: the join comparator with both sides on one schema.
func compileVecCmp(s *schema.Schema, spec relation.OrderSpec) vecCmp {
	var keys physical.JoinKeys
	for _, k := range spec {
		c := s.Index(k.Attr)
		keys.L, keys.R, keys.Dirs = append(keys.L, c), append(keys.R, c), append(keys.Dirs, k.Dir)
	}
	return compileVecJoinCmp(s, s, keys)
}

// rowsEqual reports full-row equality between two batch rows (physical
// indices) — the columnar Tuple.Equal.
func rowsEqual(a *column.Batch, ai int, b *column.Batch, bi int) bool {
	for c := range a.Cols {
		if !a.Cols[c].EqualAt(ai, &b.Cols[c], bi) {
			return false
		}
	}
	return true
}

// vecDedupSortedIter streams rdup over a columnar input whose delivered
// order covers every attribute: the first row of each equal run survives,
// found by a single adjacent comparison carried across batch boundaries.
// Survivors are emitted as selection views over the input batches.
type vecDedupSortedIter struct {
	e     *Engine
	in    vecIterator
	prevB *column.Batch
	prevI int
}

func (d *vecDedupSortedIter) nextBatch() (*column.Batch, error) {
	for {
		b, err := d.in.nextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		n := b.Rows()
		sel := make([]int, 0, n)
		for k := 0; k < n; k++ {
			i := b.RowIndex(k)
			if d.prevB != nil && rowsEqual(b, i, d.prevB, d.prevI) {
				continue
			}
			d.prevB, d.prevI = b, i
			sel = append(sel, i)
		}
		if len(sel) == 0 {
			continue
		}
		d.e.stats.VectorBatches++
		if b.Sel == nil && len(sel) == n {
			return b, nil
		}
		return b.WithSel(sel), nil
	}
}

func (d *vecDedupSortedIter) close() error { return d.in.close() }

// vecMergeCancelIter implements \ and the max-multiplicity ∪ when both
// inputs deliver one shared total order: one side drains into a compacted
// batch and the other streams past a pointer into it, each key group of the
// drained side cancelling that many of the earliest equal stream rows —
// exactly the hash operators' lists — with each stream batch's survivors
// emitted as a selection view. \ drains the right side and streams the left;
// ∪ drains the left, emits it in full (as the hash union does), then streams
// the right. The sweep state persists across batches because the stream is
// globally ordered.
type vecMergeCancelIter struct {
	e          *Engine
	stream     vecIterator
	sorted     *source
	emitSorted bool   // ∪: the drained side is output, ahead of the stream
	cmp        vecCmp // drained row against stream row

	built    bool
	sb       *column.Batch
	gi       int // start of the current drained group
	gEnd     int // end of the current drained group
	consumed int // stream occurrences the current group has cancelled
}

func (m *vecMergeCancelIter) nextBatch() (*column.Batch, error) {
	if !m.built {
		sb, err := vecDrainOne(m.sorted.vec, m.sorted.schema)
		if err != nil {
			return nil, err
		}
		m.sb, m.built = sb, true
		if m.emitSorted && sb.N > 0 {
			m.e.stats.VectorBatches++
			return sb, nil
		}
	}
	for {
		b, err := m.stream.nextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		n := b.Rows()
		sel := make([]int, 0, n)
		for k := 0; k < n; k++ {
			i := b.RowIndex(k)
			cmp := 1 // drained side exhausted: every remaining stream row survives
			for m.gi < m.sb.N {
				cmp = m.cmp(m.sb, m.gi, b, i)
				if cmp >= 0 {
					break
				}
				m.gi++
				m.gEnd = m.gi
				m.consumed = 0
			}
			if cmp == 0 {
				for m.gEnd < m.sb.N && m.cmp(m.sb, m.gEnd, b, i) == 0 {
					m.gEnd++
				}
				if m.consumed < m.gEnd-m.gi {
					m.consumed++
					continue
				}
			}
			sel = append(sel, i)
		}
		if len(sel) == 0 {
			continue
		}
		m.e.stats.VectorBatches++
		if b.Sel == nil && len(sel) == n {
			return b, nil
		}
		return b.WithSel(sel), nil
	}
}

func (m *vecMergeCancelIter) close() error { return m.stream.close() }

// vecSortSource sorts a columnar input without materializing tuples: the
// input drains into one compacted batch, a row-index permutation sorts by
// (key, row index) under the compiled comparator, and the result is a
// single selection view over the unmoved column planes. Under Parallelism
// the permutation sorts as fixed-size index runs across the worker pool and
// gathers through a k-way merge whose run-index tie-break reproduces the
// global stable sort.
func (e *Engine) vecSortSource(in *source, spec relation.OrderSpec) *source {
	workers := 1
	if e.parallel() {
		workers = e.exchange()
	}
	e.stats.VectorOps++
	sch := in.schema
	compute := func() (*column.Batch, error) {
		b, err := vecDrainOne(in.vec, sch)
		if err != nil {
			return nil, err
		}
		if b.N == 0 {
			return nil, nil
		}
		cmp := compileVecCmp(sch, spec)
		idx := identityIdx(b.N)
		if workers <= 1 || b.N <= sortRunSize {
			sortRows(b, idx, cmp)
			e.stats.VectorBatches++
			return b.WithSel(idx), nil
		}
		nRuns := (b.N + sortRunSize - 1) / sortRunSize
		if err := runTasks(workers, nRuns, func(r int) error {
			lo, hi := r*sortRunSize, (r+1)*sortRunSize
			if hi > b.N {
				hi = b.N
			}
			sortRows(b, idx[lo:hi], cmp)
			return nil
		}); err != nil {
			return nil, err
		}
		e.stats.VectorBatches++
		return b.WithSel(mergeSortedRuns(b, idx, cmp)), nil
	}
	return vecSource(&onceBatchIter{compute: compute}, sch)
}

// sortRows sorts the physical row indices rows — ascending when the sort
// starts — by (key, row index): the keys are then unique, so the unstable
// pdqsort yields exactly the stable order at O(n log n).
func sortRows(b *column.Batch, rows []int, cmp vecCmp) {
	slices.SortFunc(rows, func(x, y int) int {
		if c := cmp(b, x, b, y); c != 0 {
			return c
		}
		return x - y
	})
}

// mergeSortedRuns k-way merges the sorted index runs idx[r*sortRunSize :
// (r+1)*sortRunSize) into one sorted permutation through the external sort's
// run heap, whose run-index tie-break — runs partition the input in order —
// is exactly the stable sort's arrival order.
func mergeSortedRuns(b *column.Batch, idx []int, cmp vecCmp) []int {
	h := runHeap{cmp: cmp}
	for lo := 0; lo < len(idx); lo += sortRunSize {
		hi := min(lo+sortRunSize, len(idx))
		h.cursors = append(h.cursors, &runCursor{idx: len(h.cursors), b: b, perm: idx[lo:hi]})
	}
	heap.Init(&h)
	out := make([]int, 0, len(idx))
	take := func(_ *column.Batch, row int) { out = append(out, row) }
	for h.Len() > 0 {
		_ = h.pop(nil, take) // resident runs read no file: pop cannot fail
	}
	return out
}

// compileVecJoinCmp compiles a merge join's aligned key sequence into a
// cross-schema columnar comparator: left column L[k] against right column
// R[k] under Dirs[k], on the typed planes when both sides store the same
// unboxed kind, the generic value compare otherwise (floats always — their
// NaN and cross-kind ordering is the generic path's). The sign contract is
// physical.JoinKeys.Compare's exactly.
func compileVecJoinCmp(ls, rs *schema.Schema, keys physical.JoinKeys) vecCmp {
	type key struct {
		lc, rc int
		kind   value.Kind // shared unboxed kind; KindInvalid = generic path
		desc   bool
	}
	ks := make([]key, len(keys.L))
	for i := range keys.L {
		k := ls.At(keys.L[i]).Kind
		if rs.At(keys.R[i]).Kind != k {
			k = value.KindInvalid
		}
		ks[i] = key{lc: keys.L[i], rc: keys.R[i], kind: k, desc: keys.Dirs[i] == relation.Desc}
	}
	return func(a *column.Batch, ai int, b *column.Batch, bi int) int {
		for _, k := range ks {
			ca, cb := &a.Cols[k.lc], &b.Cols[k.rc]
			var c int
			switch {
			case intPlaneKind(k.kind) && ca.Kind == k.kind && cb.Kind == k.kind:
				va, vb := ca.Ints[ai], cb.Ints[bi]
				switch {
				case va < vb:
					c = -1
				case va > vb:
					c = 1
				}
			case k.kind == value.KindString && ca.Kind == value.KindString && cb.Kind == value.KindString:
				va, vb := ca.Strs[ai], cb.Strs[bi]
				switch {
				case va < vb:
					c = -1
				case va > vb:
					c = 1
				}
			default:
				c = ca.At(ai).Compare(cb.At(bi))
			}
			if k.desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	}
}

// vecMergeJoinIter evaluates an equi-key join over inputs both delivered in
// a key-covering order: the sorted right side drains into one compacted
// batch (as the hash join does to build its table), a single group pointer
// advances monotonically as the sorted left batches stream through, and
// output rows assemble column-wise — each probe row pairing with its
// contiguous right key group in right-list order, the hash join's exact
// left-major sequence at zero hashing cost.
type vecMergeJoinIter struct {
	e        *Engine
	left     vecIterator
	right    *source
	out      *schema.Schema
	lw, rw   int
	cmp      vecCmp // left key columns against right key columns
	residual expr.Pred
	temporal bool
	lt1, lt2 int

	built    bool
	rb       *column.Batch
	periods  []period.Period
	ri, gEnd int // current right key group [ri, gEnd)

	pb      *column.Batch
	pk      int // next presented row in pb
	cur     int // physical probe row parked on the cursor
	ci      int // next right row within the parked group
	curP    period.Period
	live    bool
	scratch relation.Tuple
}

func (m *vecMergeJoinIter) buildSide() error {
	rb, err := vecDrainOne(m.right.vec, m.right.schema)
	if err != nil {
		return err
	}
	m.rb = rb
	if m.temporal {
		rt1, rt2 := m.right.schema.TimeIndices()
		m.periods = make([]period.Period, rb.N)
		for i := 0; i < rb.N; i++ {
			m.periods[i] = rb.PeriodAt(rt1, rt2, i)
		}
	}
	m.built = true
	return nil
}

// advance parks the cursor on the next probe row with a right key group,
// pulling probe batches as needed; false when the left is exhausted. Left
// rows arrive in key order, so the right pointer never moves backwards.
func (m *vecMergeJoinIter) advance() (bool, error) {
	for {
		if m.pb == nil || m.pk >= m.pb.Rows() {
			b, err := m.left.nextBatch()
			if err != nil {
				return false, err
			}
			if b == nil {
				return false, nil
			}
			m.pb, m.pk = b, 0
			continue
		}
		i := m.pb.RowIndex(m.pk)
		m.pk++
		cmp := -1 // right side exhausted: no match for any further left key
		for m.ri < m.rb.N {
			cmp = m.cmp(m.pb, i, m.rb, m.ri)
			if cmp <= 0 {
				break
			}
			m.ri++
		}
		if cmp == 0 {
			if m.gEnd <= m.ri {
				m.gEnd = m.ri + 1
				for m.gEnd < m.rb.N && m.cmp(m.pb, i, m.rb, m.gEnd) == 0 {
					m.gEnd++
				}
			}
			m.cur = i
			m.ci = m.ri
			if m.temporal {
				m.curP = m.pb.PeriodAt(m.lt1, m.lt2, i)
			}
			return true, nil
		}
	}
}

func (m *vecMergeJoinIter) nextBatch() (*column.Batch, error) {
	if !m.built {
		if err := m.buildSide(); err != nil {
			return nil, err
		}
		ok, err := m.advance()
		if err != nil {
			return nil, err
		}
		m.live = ok
	}
	if !m.live {
		return nil, nil
	}
	out := column.NewBatch(m.out, vecBatchRows)
	for m.live {
		for m.ci < m.gEnd {
			ri := m.ci
			m.ci++
			var iv period.Period
			if m.temporal {
				iv = m.curP.Intersect(m.periods[ri])
				if iv.Empty() {
					continue
				}
			}
			if m.residual != nil {
				ok, err := m.residualHolds(ri, iv)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			for c := 0; c < m.lw; c++ {
				out.Cols[c].AppendFrom(&m.pb.Cols[c], m.cur)
			}
			for c := 0; c < m.rw; c++ {
				out.Cols[m.lw+c].AppendFrom(&m.rb.Cols[c], ri)
			}
			if m.temporal {
				out.Cols[m.lw+m.rw].Append(value.Time(iv.Start))
				out.Cols[m.lw+m.rw+1].Append(value.Time(iv.End))
			}
			out.N++
		}
		if out.N >= vecBatchRows {
			break
		}
		ok, err := m.advance()
		if err != nil {
			return nil, err
		}
		m.live = ok
	}
	if out.N == 0 {
		return nil, nil
	}
	m.e.stats.VectorBatches++
	return out, nil
}

// residualHolds evaluates the fused residual on the would-be output row,
// assembled into a reused scratch tuple exactly as the hash join does.
func (m *vecMergeJoinIter) residualHolds(ri int, iv period.Period) (bool, error) {
	if m.scratch == nil {
		width := m.lw + m.rw
		if m.temporal {
			width += 2
		}
		m.scratch = make(relation.Tuple, width)
	}
	for c := 0; c < m.lw; c++ {
		m.scratch[c] = m.pb.Cols[c].At(m.cur)
	}
	for c := 0; c < m.rw; c++ {
		m.scratch[m.lw+c] = m.rb.Cols[c].At(ri)
	}
	if m.temporal {
		m.scratch[m.lw+m.rw] = value.Time(iv.Start)
		m.scratch[m.lw+m.rw+1] = value.Time(iv.End)
	}
	return m.residual.Holds(m.out, m.scratch)
}

func (m *vecMergeJoinIter) close() error { return m.left.close() }

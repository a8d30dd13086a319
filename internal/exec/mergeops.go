// The batch merge operator family: adjacent-compare dedup, the two-pointer
// merge diff/union sweeps, the merge join, and the sort's permutation of row
// indices sorted by (key, row index) that sort.go's operator emits. Every
// comparison is the compiled comparator of keys.go, the exact typed
// specialization of the canonical value order, so every operator here
// reproduces the reference evaluator's list.
package exec

import (
	"tqp/internal/column"
	"tqp/internal/expr"
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// vecDedupSortedIter streams rdup over a columnar input whose delivered
// order covers every attribute: the first row of each equal run survives,
// found by a single adjacent comparison — the all-columns comparator, equal
// at 0 — carried across batch boundaries. Survivors are emitted as
// selection views over the input batches.
type vecDedupSortedIter struct {
	in    vecIterator
	cmp   *vecCmp
	prev  keySide // the key planes of the batch holding the previous row
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
		side := d.cmp.left(b)
		for k := 0; k < n; k++ {
			i := b.RowIndex(k)
			if d.prev != nil && d.cmp.compare(side, i, d.prev, d.prevI) == 0 {
				continue
			}
			d.prev, d.prevI = side, i
			sel = append(sel, i)
		}
		if len(sel) == 0 {
			continue
		}
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
	stream     vecIterator
	sorted     *source
	emitSorted bool    // ∪: the drained side is output, ahead of the stream
	cmp        *vecCmp // drained row against stream row

	built    bool
	sb       *column.Batch
	ss       keySide // sb's key planes
	gi       int     // start of the current drained group
	gEnd     int     // end of the current drained group
	consumed int     // stream occurrences the current group has cancelled
}

func (m *vecMergeCancelIter) nextBatch() (*column.Batch, error) {
	if !m.built {
		sb, err := vecDrainOne(m.sorted.vec, m.sorted.schema)
		if err != nil {
			return nil, err
		}
		m.sb, m.ss, m.built = sb, m.cmp.left(sb), true
		if m.emitSorted && sb.N > 0 {
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
		side := m.cmp.right(b)
		for k := 0; k < n; k++ {
			i := b.RowIndex(k)
			cmp := 1 // drained side exhausted: every remaining stream row survives
			for m.gi < m.sb.N {
				cmp = m.cmp.compare(m.ss, m.gi, side, i)
				if cmp >= 0 {
					break
				}
				m.gi++
				m.gEnd = m.gi
				m.consumed = 0
			}
			if cmp == 0 {
				for m.gEnd < m.sb.N && m.cmp.compare(m.ss, m.gEnd, side, i) == 0 {
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
		if b.Sel == nil && len(sel) == n {
			return b, nil
		}
		return b.WithSel(sel), nil
	}
}

func (m *vecMergeCancelIter) close() error { return m.stream.close() }

// sortPerm sorts a compacted batch's rows as a stable permutation of row
// indices: one sort of the whole index, or — with more than one worker and
// more than one run's worth of rows — fixed-size index runs sorted across
// the pool and merged by mergeSortedRuns.
func sortPerm(b *column.Batch, cmp *vecCmp, workers int) []int {
	idx := identityIdx(b.N)
	if workers <= 1 || b.N <= sortRunSize {
		sortRows(b, idx, cmp)
		return idx
	}
	nRuns := (b.N + sortRunSize - 1) / sortRunSize
	_ = runTasks(workers, nRuns, func(r int) error { // the run sorts cannot fail
		sortRows(b, idx[r*sortRunSize:min((r+1)*sortRunSize, b.N)], cmp)
		return nil
	})
	return mergeSortedRuns(b, idx, cmp)
}

// mergeSortedRuns k-way merges the sorted index runs idx[r*sortRunSize :
// (r+1)*sortRunSize) into one sorted permutation through the one merge
// heap, whose run-index tie-break — runs partition the input in order — is
// exactly the stable sort's arrival order.
func mergeSortedRuns(b *column.Batch, idx []int, cmp *vecCmp) []int {
	side := cmp.left(b)
	runs := (len(idx) + sortRunSize - 1) / sortRunSize
	pos := make([]int, runs) // run r's head: a position in idx
	m := newMergeHeap(make([]int, 0, runs), func(r, q int) int { return cmp.compare(side, idx[pos[r]], side, idx[pos[q]]) })
	for r := range pos {
		pos[r] = r * sortRunSize
		m.push(r)
	}
	out := make([]int, 0, len(idx))
	for m.len() > 0 {
		r := m.top()
		out = append(out, idx[pos[r]])
		pos[r]++
		m.next(pos[r] < min((r+1)*sortRunSize, len(idx)))
	}
	return out
}

// vecMergeJoinIter evaluates an equi-key join over inputs both delivered in
// a key-covering order: the sorted right side drains into one compacted
// batch (as the hash join does to build its table), a single group pointer
// advances monotonically as the sorted left batches stream through, and
// output rows assemble column-wise — each probe row pairing with its
// contiguous right key group in right-list order, the hash join's exact
// left-major sequence at zero hashing cost.
type vecMergeJoinIter struct {
	left     vecIterator
	right    *source
	out      *schema.Schema
	lw, rw   int
	cmp      *vecCmp // left key columns against right key columns
	residual expr.Pred
	temporal bool
	lt1, lt2 int

	built    bool
	rb       *column.Batch
	rs       keySide // rb's key planes
	periods  []period.Period
	ri, gEnd int // current right key group [ri, gEnd)

	pb      *column.Batch
	ps      keySide // pb's key planes
	pk      int     // next presented row in pb
	cur     int     // physical probe row parked on the cursor
	ci      int     // next right row within the parked group
	curP    period.Period
	live    bool
	scratch relation.Tuple
}

func (m *vecMergeJoinIter) buildSide() error {
	rb, err := vecDrainOne(m.right.vec, m.right.schema)
	if err != nil {
		return err
	}
	m.rb, m.rs = rb, m.cmp.right(rb)
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
			m.pb, m.ps, m.pk = b, m.cmp.left(b), 0
			continue
		}
		i := m.pb.RowIndex(m.pk)
		m.pk++
		cmp := -1 // right side exhausted: no match for any further left key
		for m.ri < m.rb.N {
			cmp = m.cmp.compare(m.ps, i, m.rs, m.ri)
			if cmp <= 0 {
				break
			}
			m.ri++
		}
		if cmp == 0 {
			if m.gEnd <= m.ri {
				m.gEnd = m.ri + 1
				for m.gEnd < m.rb.N && m.cmp.compare(m.ps, i, m.rs, m.gEnd) == 0 {
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

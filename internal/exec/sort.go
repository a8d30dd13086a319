package exec

import (
	"container/heap"

	"tqp/internal/column"
	"tqp/internal/schema"
	"tqp/internal/spill"
)

// sortRunSize bounds the rows of one index run the in-memory sort fans out
// across the worker pool (sortPerm). The budgeted sort's spilled runs are
// cut by bytes instead.
const sortRunSize = 4096

// mergeSortIter is the budgeted engine's sort (the unbudgeted sort is
// vecSortSource). The input batches are consumed as views into an open run,
// whose rows grow the arbiter by their bytes. A sort whose input fits the
// operator's share keeps it as one run: its views concatenate and compact
// once, it sorts once by (key, row index) as a permutation of row indices
// (index runs across the worker pool under Parallelism), and it is emitted
// through that permutation — exactly the unbudgeted sort.
//
// At the row that would cross the share the sort spills: the open run sorts
// and is written to the sort's one spill pass as a bucket in sorted order,
// its bytes return to the arbiter, and further runs cut at half the share
// and spill the same way — except the final run, which stays resident. The
// runs are then merged through a min-heap whose tie-break — run index, then
// position within the run — makes the merged sequence exactly the stable
// sort of the whole input; spilled runs stream a block at a time. Emission
// streams batch-at-a-time from the heap, and each output batch gathers its
// rows plane-wise as (run, row range) stretches. Run boundaries are pure
// bookkeeping — any consecutive partition into stable-sorted runs merges to
// the identical global stable sort — so the budgeted sort agrees with the
// in-memory one bit-for-bit.
type mergeSortIter struct {
	eng     *Engine
	in      vecIterator
	schema  *schema.Schema
	cmp     *vecCmp
	workers int // the run sorts' fan-out

	built    bool
	whole    *column.Batch // the sorted input of a sort that never spilled, not yet emitted
	h        runHeap
	segs     []runSeg
	resident int64 // accounted bytes of in-memory runs, released on close
}

// runSeg is a stretch of merged output read from one run: positions [lo,
// hi) of its permutation (a resident run) or of its decoded block (a
// spilled one).
type runSeg struct {
	c      *runCursor
	lo, hi int
}

// runCursor is one run's merge position: row perm[pos] of a resident run's
// batch, or row pos of the block a spilled run's reader decoded last.
type runCursor struct {
	idx  int // run index: the stability tie-break
	b    *column.Batch
	side keySide // b's key planes, bound again for every decoded block
	perm []int   // resident runs: the sorted order of b's rows
	pos  int

	file *spill.File
	r    *spill.Reader
}

// row is the physical row of b the cursor is on.
func (c *runCursor) row() int {
	if c.perm != nil {
		return c.perm[c.pos]
	}
	return c.pos
}

// advance moves past the current row; ok=false reports run exhaustion.
func (c *runCursor) advance(sch *schema.Schema, cmp *vecCmp) (ok bool, err error) {
	c.pos++
	if c.r == nil {
		return c.pos < len(c.perm), nil
	}
	if c.pos < c.b.N {
		return true, nil
	}
	return c.nextBlock(sch, cmp)
}

// readBlock decodes r's next block over b's planes, replacing the block
// decoded before; ok=false marks the end of the file.
func readBlock(r *spill.Reader, b *column.Batch) (ok bool, err error) {
	b.Reset()
	_, ok, err = r.Next(b)
	return ok, err
}

// nextBlock decodes a spilled run's next block over the planes of the last
// one — the merge has copied every row of it out by now; at the end of the
// file the cursor closes itself.
func (c *runCursor) nextBlock(sch *schema.Schema, cmp *vecCmp) (ok bool, err error) {
	if c.b == nil {
		c.b = column.NewBatch(sch, spill.BlockRows)
	}
	ok, err = readBlock(c.r, c.b)
	if err != nil {
		return false, err
	}
	if !ok {
		c.close()
		return false, nil
	}
	c.pos, c.side = 0, cmp.left(c.b)
	return true, nil
}

// open readies a spilled cursor's reader and first block; ok=false reports
// an empty run.
func (c *runCursor) open(sch *schema.Schema, cmp *vecCmp) (ok bool, err error) {
	if c.file == nil {
		return true, nil
	}
	if c.r, err = c.file.Open(); err != nil {
		return false, err
	}
	return c.nextBlock(sch, cmp)
}

// close releases a spilled cursor's reader and file.
func (c *runCursor) close() {
	if c.r != nil {
		c.r.Close()
		c.r = nil
	}
	if c.file != nil {
		c.file.Remove()
		c.file = nil
	}
}

type runHeap struct {
	cursors []*runCursor
	cmp     *vecCmp
}

func (h *runHeap) Len() int { return len(h.cursors) }
func (h *runHeap) Less(i, j int) bool {
	a, b := h.cursors[i], h.cursors[j]
	if c := h.cmp.compare(a.side, a.row(), b.side, b.row()); c != 0 {
		return c < 0
	}
	return a.idx < b.idx
}
func (h *runHeap) Swap(i, j int) { h.cursors[i], h.cursors[j] = h.cursors[j], h.cursors[i] }
func (h *runHeap) Push(x any)    { h.cursors = append(h.cursors, x.(*runCursor)) }
func (h *runHeap) Pop() any {
	n := len(h.cursors)
	c := h.cursors[n-1]
	h.cursors = h.cursors[:n-1]
	return c
}

// step moves the top cursor past its current row; a cursor at its run's end
// leaves the heap.
func (h *runHeap) step(sch *schema.Schema) error {
	ok, err := h.cursors[0].advance(sch, h.cmp)
	if err != nil {
		return err
	}
	if ok {
		heap.Fix(h, 0)
	} else {
		heap.Pop(h)
	}
	return nil
}

func (m *mergeSortIter) build() error {
	share := m.eng.opShare()
	limit := share // the open run's allowance: the share, or half of it once spilling

	var cursors []*runCursor // the spilled runs, in arrival order
	var pass *spill.Pass     // the spilled runs' one file, once the sort spills
	var zeros []int          // a spilled run's sequence keys: its file order is its order

	// The open run is views of the input rows it holds so far.
	var views []*column.Batch
	var runRows int
	var runBytes int64

	// sortRun closes the open run: its views concatenate and compact once,
	// and it sorts as a row permutation.
	sortRun := func() *runCursor {
		run := column.Concat(m.schema, views, runRows).Compact()
		clear(views)
		views = views[:0]
		return &runCursor{idx: len(cursors), b: run, side: m.cmp.left(run), perm: sortPerm(run, m.cmp, m.workers)}
	}
	// spillRun sorts the open run and writes it, in sorted order, as one
	// bucket of the sort's pass; its bytes return to the arbiter.
	spillRun := func() error {
		if pass == nil {
			pass = m.eng.spillMgr.NewPass()
			m.eng.stats.SpilledOps++
		}
		c := sortRun()
		if len(zeros) < runRows {
			zeros = make([]int, runRows)
		}
		w := pass.Writer()
		if err := w.Write(zeros[:runRows], c.b.WithSel(c.perm)); err != nil {
			w.Abort()
			return err
		}
		f, err := w.Finish()
		if err != nil {
			return err
		}
		c.b, c.side, c.perm, c.file = nil, nil, nil, f
		cursors = append(cursors, c)
		m.eng.mem.release(runBytes)
		runRows, runBytes = 0, 0
		return nil
	}

	fail := func(err error) error {
		for _, c := range cursors {
			c.close()
		}
		return err
	}

	for {
		b, err := m.in.nextBatch()
		if err != nil {
			m.in.close()
			return fail(err)
		}
		if b == nil {
			break
		}
		// The rows that fit the allowance join the open run, priced once
		// per range; the row that would cross it spills the run first.
		for lo, n := 0, b.Rows(); lo < n; {
			k, bb := b.Fit(lo, n, limit-runBytes)
			if k == lo && runRows == 0 {
				// A row wider than the allowance is a run of its own.
				k, bb = lo+1, b.Bytes(lo, lo+1)
			}
			if k > lo {
				views = append(views, b.RangeView(lo, k))
				runRows += k - lo
				runBytes += bb
				m.eng.mem.grow(bb)
				lo = k
			}
			if lo < n {
				if err := spillRun(); err != nil {
					m.in.close()
					return fail(err)
				}
				limit = share / 2
			}
		}
	}
	if err := m.in.close(); err != nil {
		return fail(err)
	}
	m.resident, m.built = runBytes, true
	if pass == nil {
		if runRows > 0 {
			c := sortRun()
			m.whole = c.b.WithSel(c.perm)
		}
		return nil
	}
	if runRows > 0 {
		cursors = append(cursors, sortRun())
	}
	m.h = runHeap{cmp: m.cmp}
	for _, c := range cursors {
		ok, err := c.open(m.schema, m.cmp)
		if err != nil {
			return fail(err)
		}
		if ok {
			m.h.cursors = append(m.h.cursors, c)
		}
	}
	heap.Init(&m.h)
	return nil
}

func (m *mergeSortIter) nextBatch() (*column.Batch, error) {
	if !m.built {
		if err := m.build(); err != nil {
			return nil, err
		}
	}
	if b := m.whole; b != nil {
		m.whole = nil
		return b, nil
	}
	if m.h.Len() == 0 {
		return nil, nil
	}
	out := column.NewBatch(m.schema, vecBatchRows)
	segs := m.segs[:0]
	for rows := 0; rows < vecBatchRows && m.h.Len() > 0; rows++ {
		c := m.h.cursors[0]
		if last := len(segs) - 1; last >= 0 && segs[last].c == c && segs[last].hi == c.pos {
			segs[last].hi++
		} else {
			segs = append(segs, runSeg{c, c.pos, c.pos + 1})
		}
		if c.r != nil && c.pos+1 == c.b.N {
			// The run's next block decodes over this one's planes: its
			// rows are gathered first.
			gatherSegs(out, segs)
			segs = segs[:0]
		}
		if err := m.h.step(m.schema); err != nil {
			return nil, err
		}
	}
	gatherSegs(out, segs)
	m.segs = segs[:0]
	return out, nil
}

// gatherSegs appends the rows of merged stretches to out plane by plane: a
// resident run's through its permutation, a spilled run's block as a range.
func gatherSegs(out *column.Batch, segs []runSeg) {
	for c := range out.Cols {
		col := &out.Cols[c]
		for _, sg := range segs {
			if sg.c.perm != nil {
				col.AppendIndexed(&sg.c.b.Cols[c], sg.c.perm[sg.lo:sg.hi])
			} else {
				col.AppendRange(&sg.c.b.Cols[c], sg.lo, sg.hi)
			}
		}
	}
	for _, sg := range segs {
		out.N += sg.hi - sg.lo
	}
}

func (m *mergeSortIter) close() error {
	for _, c := range m.h.cursors {
		c.close()
	}
	m.h.cursors = nil
	if m.resident > 0 {
		m.eng.mem.release(m.resident)
		m.resident = 0
	}
	return nil
}

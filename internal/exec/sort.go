package exec

import (
	"container/heap"

	"tqp/internal/column"
	"tqp/internal/schema"
	"tqp/internal/spill"
)

// sortRunSize bounds the rows sorted per run: the index runs the in-memory
// batch sort fans out across the worker pool (vecSortSource), and the runs
// of the budgeted external merge sort, which additionally cuts runs by
// bytes and spills them to temp files.
const sortRunSize = 4096

// mergeSortIter is the budgeted engine's external merge sort (the
// unbudgeted sort is vecSortSource): the input batches are consumed into
// consecutive bounded runs — views of the input rows, concatenated and
// compacted once per run and sorted by (key, row index) as a permutation of
// row indices — and the runs are merged through a min-heap whose tie-break —
// run index, then position within the run — makes the merged sequence
// exactly the stable sort of the whole input. Emission streams
// batch-at-a-time from the heap, so downstream operators start before the
// full output materializes.
//
// Run cutting is byte-driven: while the accumulated input fits the
// operator's share, runs stay in memory; past the share, every resident run
// spills and further runs cut at half the share, sort, and spill as
// columnar blocks in sorted order — every spilled run a bucket of the
// sort's one spill pass — except the final run, which stays resident. The
// merge heap then streams the spilled runs a block at a time. Run
// boundaries are pure bookkeeping — any consecutive partition into
// stable-sorted runs merges to the identical global stable sort — so the
// budgeted sort agrees with the in-memory one bit-for-bit.
type mergeSortIter struct {
	eng    *Engine
	in     vecIterator
	schema *schema.Schema
	cmp    *vecCmp

	built    bool
	h        runHeap
	resident int64 // accounted bytes of in-memory runs, released on close
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

// pop hands the merge's next row to take and moves its cursor on; a cursor at
// its run's end leaves the heap.
func (h *runHeap) pop(sch *schema.Schema, take func(b *column.Batch, row int)) error {
	c := h.cursors[0]
	take(c.b, c.row())
	ok, err := c.advance(sch, h.cmp)
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

	var cursors []*runCursor
	var residentBytes int64
	var pass *spill.Pass // the spilled runs' one file, once the sort spills
	var zeros []int      // a spilled run's sequence keys: its file order is its order

	// The open run is views of the input rows it holds so far.
	var views []*column.Batch
	var runRows int
	var runBytes int64

	spillRun := func(c *runCursor) error {
		w := pass.Writer()
		// The run spills as the selection view of its permutation.
		if err := w.Write(zeros[:len(c.perm)], c.b.WithSel(c.perm)); err != nil {
			w.Abort()
			return err
		}
		var err error
		c.file, err = w.Finish()
		c.b, c.side, c.perm = nil, nil, nil
		return err
	}
	// cut closes the open run: its views concatenate and compact once, it
	// sorts as a row permutation, and it spills — unless the sort is not
	// spilling or this is the final run, which stays resident (under the cut
	// rule it is at most half the share).
	cut := func(final bool) error {
		if runRows == 0 {
			return nil
		}
		run := column.Concat(m.schema, views, runRows).Compact()
		c := &runCursor{idx: len(cursors), b: run, side: m.cmp.left(run), perm: identityIdx(run.N)}
		sortRows(c.b, c.perm, m.cmp)
		cursors = append(cursors, c)
		clear(views)
		views = views[:0]
		if pass != nil && !final {
			if err := spillRun(c); err != nil {
				return err
			}
		} else {
			residentBytes += runBytes
			m.eng.mem.grow(runBytes)
		}
		runRows, runBytes = 0, 0
		return nil
	}
	// startSpilling converts every resident run to a spilled one in place —
	// run indices (the stability tie-break) keep their arrival order — so
	// from here on the working set is the open run plus the pass's buffer.
	startSpilling := func() error {
		pass = m.eng.spillMgr.NewPass()
		zeros = make([]int, sortRunSize)
		m.eng.stats.SpilledOps++
		for _, c := range cursors {
			if err := spillRun(c); err != nil {
				return err
			}
		}
		m.eng.mem.release(residentBytes)
		residentBytes = 0
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
		// Rows [lo, k] of b belong to the open run; the cut decisions are
		// made row by row, exactly where the rows cross them.
		lo, n := 0, b.Rows()
		for k := 0; k < n; k++ {
			runBytes += b.MemSize(b.RowIndex(k))
			runRows++
			if pass == nil && residentBytes+runBytes > share {
				err = startSpilling()
			}
			if err == nil && (pass != nil && runBytes > share/2 || runRows == sortRunSize) {
				views = append(views, b.RangeView(lo, k+1))
				lo = k + 1
				err = cut(false)
			}
			if err != nil {
				m.in.close()
				return fail(err)
			}
		}
		if lo < n {
			views = append(views, b.RangeView(lo, n))
		}
	}
	if err := m.in.close(); err != nil {
		return fail(err)
	}
	if err := cut(true); err != nil {
		return fail(err)
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
	m.resident = residentBytes
	m.built = true
	return nil
}

func (m *mergeSortIter) nextBatch() (*column.Batch, error) {
	if !m.built {
		if err := m.build(); err != nil {
			return nil, err
		}
	}
	if m.h.Len() == 0 {
		return nil, nil
	}
	out := column.NewBatch(m.schema, vecBatchRows)
	take := out.AppendRow
	for m.h.Len() > 0 && out.N < vecBatchRows {
		if err := m.h.pop(m.schema, take); err != nil {
			return nil, err
		}
	}
	return out, nil
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

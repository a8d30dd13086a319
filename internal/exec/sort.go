package exec

import (
	"tqp/internal/column"
	"tqp/internal/schema"
	"tqp/internal/spill"
)

// sortRunSize bounds the rows of one index run that sortPerm fans out
// across the worker pool under Parallelism. A budgeted sort's spilled runs
// are cut by bytes instead.
const sortRunSize = 4096

// mergeSortIter is the engine's one sort (an elided sort compiles to
// nothing). The input batches are held as an open run. A sort whose input
// fits the operator's share — every unbudgeted sort, whose share is noShare
// and whose rows are never priced — keeps it as one run: its batches
// concatenate and compact once, it sorts once by (key, row index) as a
// permutation of row indices (index runs across the worker pool under
// Parallelism), and it is emitted as one selection view through that
// permutation.
//
// Under a budget the open run is views of the input rows, which grow the
// arbiter by their bytes, and at the row that would cross the share the
// sort spills: the open run sorts and is written to the sort's one spill
// pass as a bucket in sorted order, its bytes return to the arbiter, and
// further runs cut at half the share and spill the same way — except the
// final run, which stays resident. The runs are then merged through the one
// merge heap, whose tie-break — run index, then position within the run —
// makes the merged sequence exactly the stable sort of the whole input;
// spilled runs stream a block at a time. Emission streams batch-at-a-time
// from the heap, and each output batch gathers its rows plane-wise as (run,
// row range) stretches. Run boundaries are pure bookkeeping — any
// consecutive partition into stable-sorted runs merges to the identical
// global stable sort — so a spilling sort agrees with one that fits
// bit-for-bit.
type mergeSortIter struct {
	eng     *Engine
	in      vecIterator
	schema  *schema.Schema
	cmp     *vecCmp
	share   int64 // the open run's allowance before the sort spills
	workers int   // the run sorts' fan-out

	built    bool
	whole    *column.Batch // the sorted input of a sort that never spilled, not yet emitted
	runs     []*runCursor  // a spilled sort's runs, in arrival order
	h        mergeHeap     // the runs with rows left, by index into runs
	segs     []runSeg      // the stretches of the batch being gathered
	resident int64         // accounted bytes of in-memory runs, released on close
}

// runSeg is a stretch of merged output read from one run: presented rows
// [lo, hi) of its cursor's batch.
type runSeg struct {
	c      *runCursor
	lo, hi int
}

// runCursor is one run's merge position: presented row pos of b, which is
// a resident run's batch viewed through its sort permutation, or the block
// a spilled run's reader decoded last.
type runCursor struct {
	b    *column.Batch
	side keySide // b's key planes, bound again for every decoded block
	pos  int

	file *spill.File
	r    *spill.Reader
}

// row is the physical row of b the cursor is on.
func (c *runCursor) row() int { return c.b.RowIndex(c.pos) }

// advance moves past the current row; ok=false reports run exhaustion.
func (c *runCursor) advance(sch *schema.Schema, cmp *vecCmp) (ok bool, err error) {
	c.pos++
	if c.pos < c.b.Rows() {
		return true, nil
	}
	if c.r == nil {
		return false, nil
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

func (m *mergeSortIter) build() error {
	limit := m.share // the open run's allowance: the share, or half of it once spilling

	var pass *spill.Pass // the spilled runs' one file, once the sort spills
	var zeros []int      // a spilled run's sequence keys: its file order is its order

	// The open run is the input batches it holds so far — views of their
	// rows under a budget.
	var views []*column.Batch
	var runRows int
	var runBytes int64

	// sortRun closes the open run: its batches concatenate and compact
	// once, and it is viewed through its sort permutation.
	sortRun := func() *column.Batch {
		run := column.Concat(m.schema, views, runRows).Compact()
		clear(views)
		views = views[:0]
		return run.WithSel(sortPerm(run, m.cmp, m.workers))
	}
	// spillRun sorts the open run and writes it, in sorted order, as one
	// bucket of the sort's pass; its bytes return to the arbiter.
	spillRun := func() error {
		if pass == nil {
			pass = m.eng.spillMgr.NewPass()
			m.eng.stats.SpilledOps++
		}
		run := sortRun()
		if len(zeros) < runRows {
			zeros = make([]int, runRows)
		}
		w := pass.Writer()
		if err := w.Write(zeros[:runRows], run); err != nil {
			w.Abort()
			return err
		}
		f, err := w.Finish()
		if err != nil {
			return err
		}
		m.runs = append(m.runs, &runCursor{file: f})
		m.eng.mem.release(runBytes)
		runRows, runBytes = 0, 0
		return nil
	}

	fail := func(err error) error {
		m.in.close()
		m.close()
		return err
	}

	for {
		b, err := m.in.nextBatch()
		if err != nil {
			return fail(err)
		}
		if b == nil {
			break
		}
		if m.share == noShare {
			views = append(views, b)
			runRows += b.Rows()
			continue
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
					return fail(err)
				}
				limit = m.share / 2
			}
		}
	}
	m.resident, m.built = runBytes, true
	if err := m.in.close(); err != nil {
		m.close()
		return err
	}
	if pass == nil {
		if runRows > 0 {
			m.whole = sortRun()
		}
		return nil
	}
	if runRows > 0 {
		run := sortRun()
		m.runs = append(m.runs, &runCursor{b: run, side: m.cmp.left(run)})
	}
	m.h = newMergeHeap(make([]int, 0, len(m.runs)), func(a, b int) int {
		ca, cb := m.runs[a], m.runs[b]
		return m.cmp.compare(ca.side, ca.row(), cb.side, cb.row())
	})
	for k, c := range m.runs {
		ok, err := c.open(m.schema, m.cmp)
		if err != nil {
			m.close()
			return err
		}
		if ok {
			m.h.push(k)
		}
	}
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
	if m.h.len() == 0 {
		return nil, nil
	}
	out := column.NewBatch(m.schema, vecBatchRows)
	if m.segs == nil {
		m.segs = make([]runSeg, 0, vecBatchRows) // a batch is at most a stretch per row
	}
	segs := m.segs
	gather := func() {
		for _, sg := range segs {
			out.AppendPresented(sg.c.b, sg.lo, sg.hi)
		}
		segs = segs[:0]
	}
	for rows := 0; rows < vecBatchRows && m.h.len() > 0; rows++ {
		c := m.runs[m.h.top()]
		if last := len(segs) - 1; last >= 0 && segs[last].c == c && segs[last].hi == c.pos {
			segs[last].hi++
		} else {
			segs = append(segs, runSeg{c, c.pos, c.pos + 1})
		}
		if c.r != nil && c.pos+1 == c.b.N {
			// The run's next block decodes over this one's planes: its
			// rows are gathered first.
			gather()
		}
		ok, err := c.advance(m.schema, m.cmp)
		if err != nil {
			return nil, err
		}
		m.h.next(ok)
	}
	gather()
	m.segs = segs
	return out, nil
}

func (m *mergeSortIter) close() error {
	for _, c := range m.runs {
		c.close()
	}
	m.runs, m.h = nil, mergeHeap{}
	if m.resident > 0 {
		m.eng.mem.release(m.resident)
		m.resident = 0
	}
	return nil
}

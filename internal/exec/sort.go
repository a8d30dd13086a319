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
// consecutive bounded runs — rows copied onto a run's own column planes and
// sorted by (key, row index) as a permutation of row indices — and the runs
// are merged through a min-heap whose tie-break — run index, then position
// within the run — makes the merged sequence exactly the stable sort of the
// whole input. Emission streams batch-at-a-time from the heap, so downstream
// operators start before the full output materializes.
//
// Run cutting is byte-driven: while the accumulated input fits the
// operator's share, runs stay in memory; past the share, every resident run
// flushes to a spill file and further runs cut at half the share, sort, and
// spill as columnar blocks in sorted order. The merge heap then streams from
// the files, a block at a time. Run boundaries are pure bookkeeping — any
// consecutive partition into stable-sorted runs merges to the identical
// global stable sort — so the budgeted sort agrees with the in-memory one
// bit-for-bit.
type mergeSortIter struct {
	eng    *Engine
	in     vecIterator
	schema *schema.Schema
	cmp    vecCmp

	built    bool
	h        runHeap
	resident int64 // accounted bytes of in-memory runs, released on close
}

// runCursor is one run's merge position: row perm[pos] of a resident run's
// batch, or row pos of the block a spilled run's reader decoded last.
type runCursor struct {
	idx  int // run index: the stability tie-break
	b    *column.Batch
	perm []int // resident runs: the sorted order of b's rows
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
func (c *runCursor) advance(sch *schema.Schema) (ok bool, err error) {
	c.pos++
	if c.r == nil {
		return c.pos < len(c.perm), nil
	}
	if c.pos < c.b.N {
		return true, nil
	}
	return c.nextBlock(sch)
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
func (c *runCursor) nextBlock(sch *schema.Schema) (ok bool, err error) {
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
	c.pos = 0
	return true, nil
}

// open readies a spilled cursor's reader and first block; ok=false reports
// an empty run.
func (c *runCursor) open(sch *schema.Schema) (ok bool, err error) {
	if c.file == nil {
		return true, nil
	}
	if c.r, err = c.file.Open(); err != nil {
		return false, err
	}
	return c.nextBlock(sch)
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
	cmp     vecCmp
}

func (h *runHeap) Len() int { return len(h.cursors) }
func (h *runHeap) Less(i, j int) bool {
	a, b := h.cursors[i], h.cursors[j]
	if c := h.cmp(a.b, a.row(), b.b, b.row()); c != 0 {
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
	ok, err := c.advance(sch)
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
	spilling := false

	run := column.NewBatch(m.schema, sortRunSize)
	var runBytes int64

	spillRun := func(c *runCursor) error {
		w, err := m.eng.spillMgr.Create()
		if err != nil {
			return err
		}
		// The run spills as the selection view of its permutation; the sort
		// needs no sequence keys: the run's file order is its order.
		err = w.Write(make([]int, len(c.perm)), c.b.WithSel(c.perm))
		if err != nil {
			w.Abort()
			return err
		}
		c.file, err = w.Finish()
		c.b, c.perm = nil, nil
		return err
	}
	flush := func() error {
		if run.N == 0 {
			return nil
		}
		c := &runCursor{idx: len(cursors), b: run, perm: identityIdx(run.N)}
		sortRows(c.b, c.perm, m.cmp)
		cursors = append(cursors, c)
		if spilling {
			if err := spillRun(c); err != nil {
				return err
			}
		} else {
			residentBytes += runBytes
			m.eng.mem.grow(runBytes)
		}
		run = column.NewBatch(m.schema, sortRunSize)
		runBytes = 0
		return nil
	}
	// startSpilling converts every resident run to a spill file in place —
	// run indices (the stability tie-break) keep their arrival order — so
	// from here on the working set is one run buffer plus writer buffers.
	startSpilling := func() error {
		spilling = true
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
		for k, n := 0, b.Rows(); k < n; k++ {
			i := b.RowIndex(k)
			run.AppendRow(b, i)
			runBytes += b.MemSize(i)
			if !spilling && residentBytes+runBytes > share {
				err = startSpilling()
			}
			if err == nil && (spilling && runBytes > share/2 || run.N == sortRunSize) {
				err = flush()
			}
			if err != nil {
				m.in.close()
				return fail(err)
			}
		}
	}
	if err := m.in.close(); err != nil {
		return fail(err)
	}
	if err := flush(); err != nil {
		return fail(err)
	}

	m.h = runHeap{cmp: m.cmp}
	for _, c := range cursors {
		ok, err := c.open(m.schema)
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
	m.eng.stats.VectorBatches++
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

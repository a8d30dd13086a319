package exec

import (
	"container/heap"
	"sort"

	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/spill"
)

// sortRunSize bounds the rows sorted per run: the index runs the in-memory
// batch sort fans out across the worker pool (vecSortSource), and the tuple
// runs of the budgeted external merge sort, which additionally cuts runs by
// bytes and spills them to temp files.
const sortRunSize = 4096

// mergeSortIter is the budgeted engine's external merge sort (the
// unbudgeted sort is vecSortSource): the input is consumed into consecutive
// bounded runs, each stable-sorted in place, and the runs are merged
// through a min-heap whose tie-break — run index, then position within the
// run — makes the merged sequence exactly the stable sort of the whole
// input. Emission streams tuple-at-a-time from the heap, so downstream
// operators start before the full output materializes.
//
// Run cutting is byte-driven: while the accumulated input fits the
// operator's share, runs stay in memory; past the share, every resident run
// flushes to a spill file and further runs cut at half the share, sort, and
// spill. The merge heap then streams from the files. Run boundaries are
// pure bookkeeping — any consecutive partition into stable-sorted runs
// merges to the identical global stable sort — so the budgeted sort agrees
// with the in-memory one bit-for-bit.
type mergeSortIter struct {
	eng    *Engine
	in     *source
	spec   relation.OrderSpec
	schema *schema.Schema

	built    bool
	h        runHeap
	resident int64 // accounted bytes of in-memory runs, released on close
}

// runCursor is one run's merge position: a resident run indexed by pos, or
// a spilled run streamed through a reader with a one-tuple head.
type runCursor struct {
	run []relation.Tuple
	idx int // run index: the stability tie-break
	pos int

	file *spill.File
	r    *spill.Reader
	head relation.Tuple
}

// top returns the cursor's current tuple.
func (c *runCursor) top() relation.Tuple {
	if c.r != nil {
		return c.head
	}
	return c.run[c.pos]
}

// advance moves past the current tuple; ok=false reports run exhaustion.
func (c *runCursor) advance() (ok bool, err error) {
	if c.r == nil {
		c.pos++
		return c.pos < len(c.run), nil
	}
	_, t, ok, err := c.r.Next()
	if err != nil {
		return false, err
	}
	if !ok {
		c.close()
		return false, nil
	}
	c.head = t
	return true, nil
}

// open readies a spilled cursor's reader and first head.
func (c *runCursor) open() error {
	if c.file == nil {
		return nil
	}
	r, err := c.file.Open()
	if err != nil {
		return err
	}
	_, t, ok, err := r.Next()
	if err != nil || !ok {
		r.Close()
		if err == nil {
			c.file.Remove()
			c.file = nil
		}
		return err
	}
	c.r, c.head = r, t
	return nil
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
	schema  *schema.Schema
	spec    relation.OrderSpec
}

func (h *runHeap) Len() int { return len(h.cursors) }
func (h *runHeap) Less(i, j int) bool {
	a, b := h.cursors[i], h.cursors[j]
	c := relation.CompareOn(h.schema, h.spec, a.top(), b.top())
	if c != 0 {
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

func (m *mergeSortIter) build() error {
	share := m.eng.opShare()

	var cursors []*runCursor
	var residentBytes int64
	spilling := false

	run := make([]relation.Tuple, 0, sortRunSize)
	var runBytes int64

	sortRun := func(r []relation.Tuple) {
		sort.SliceStable(r, func(i, j int) bool {
			return relation.CompareOn(m.schema, m.spec, r[i], r[j]) < 0
		})
	}
	spillRun := func(r []relation.Tuple) (*spill.File, error) {
		w, err := m.eng.spillMgr.Create()
		if err != nil {
			return nil, err
		}
		for _, t := range r {
			if err := w.Append(0, t); err != nil {
				w.Abort()
				return nil, err
			}
		}
		return w.Finish()
	}
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		r := run
		sortRun(r)
		c := &runCursor{idx: len(cursors)}
		if spilling {
			f, err := spillRun(r)
			if err != nil {
				return err
			}
			c.file = f
		} else {
			c.run = r
			residentBytes += runBytes
			m.eng.mem.grow(runBytes)
		}
		cursors = append(cursors, c)
		run = make([]relation.Tuple, 0, sortRunSize)
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
			f, err := spillRun(c.run)
			if err != nil {
				return err
			}
			c.file = f
			c.run = nil
		}
		m.eng.mem.release(residentBytes)
		residentBytes = 0
		return nil
	}

	fail := func(err error) error {
		for _, c := range cursors {
			c.close()
		}
		m.in.it.close()
		return err
	}

	for {
		t, err := m.in.it.next()
		if err != nil {
			return fail(err)
		}
		if t == nil {
			break
		}
		run = append(run, t)
		runBytes += spill.TupleMemSize(t)
		if !spilling && residentBytes+runBytes > share {
			if err := startSpilling(); err != nil {
				return fail(err)
			}
		}
		if spilling && runBytes > share/2 {
			if err := flush(); err != nil {
				return fail(err)
			}
		}
		if len(run) == sortRunSize {
			if err := flush(); err != nil {
				return fail(err)
			}
		}
	}
	if err := m.in.it.close(); err != nil {
		for _, c := range cursors {
			c.close()
		}
		return err
	}
	if err := flush(); err != nil {
		for _, c := range cursors {
			c.close()
		}
		return err
	}

	m.h = runHeap{schema: m.schema, spec: m.spec}
	for _, c := range cursors {
		if err := c.open(); err != nil {
			for _, cc := range cursors {
				cc.close()
			}
			return err
		}
		if c.file == nil && c.r == nil && c.run == nil {
			continue // empty spilled run
		}
		m.h.cursors = append(m.h.cursors, c)
	}
	heap.Init(&m.h)
	m.resident = residentBytes
	m.built = true
	return nil
}

func (m *mergeSortIter) next() (relation.Tuple, error) {
	if !m.built {
		if err := m.build(); err != nil {
			return nil, err
		}
	}
	if m.h.Len() == 0 {
		return nil, nil
	}
	c := m.h.cursors[0]
	t := c.top()
	ok, err := c.advance()
	if err != nil {
		return nil, err
	}
	if !ok {
		heap.Pop(&m.h)
	} else {
		heap.Fix(&m.h, 0)
	}
	return t, nil
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

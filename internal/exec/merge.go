package exec

import (
	"tqp/internal/column"
	"tqp/internal/schema"
)

// groupCutIter runs a one-sided grouping operator over an input whose
// delivered order keeps its groups contiguous: it cuts the batch stream at
// group boundaries and runs the operator's partition body — the one the
// exchange driver runs, told the groups are contiguous — over each slice of
// whole groups of at least a batch's worth of rows, handing the slice's
// output on before reading further. Only that slice and the rows of the
// unfinished last group are held, so the state is bounded by one group plus
// two batches: no hash table, no global materialization. Groups never span
// slices and the bodies keep list order, so the concatenated slice outputs
// are the driver's gathered result exactly.
//
// The iterator owns its scratch, as a body call owns its pooled one: the
// held group as row ranges of the input batches it arrived in (a batch is
// immutable once handed on), one dense batch it refills every pull with the
// slice of whole groups the body reads, and the body's row list over it. No
// output aliases the scratch — the temporal bodies' spans are copied out by
// the gather and the grouping bodies build batches of their own — so once a
// pull's output is gathered the scratch is free again.
type groupCutIter struct {
	in   vecIterator
	out  *schema.Schema
	idx  []int // grouping columns (equality defines a group boundary)
	body partBody

	held []span        // the unfinished last group, all equal on idx
	work *column.Batch // the slice of whole groups the next body call reads
	rows []int         // work's rows, in order
	// emit is the last slice's output not yet handed on, a window into
	// gathered, whose backing array the next slice's output reuses.
	emit, gathered []*column.Batch
	done           bool
}

// span is the presented rows [lo, hi) of an input batch.
type span struct {
	b      *column.Batch
	lo, hi int
}

// groupSource compiles a one-sided grouping operator from its partition
// body, told whether in's delivered order keeps the idx groups contiguous:
// streamed group-at-a-time when that order allows, else by the exchange
// driver.
func (e *Engine) groupSource(in *source, idx []int, out *schema.Schema, body func(contiguous bool) partBody) *source {
	contiguous := groupsContiguous(in.order, in.schema, idx)
	if !e.streams(in, idx) {
		return e.keyedSource(&keyedOp{l: in, lidx: idx, contiguous: contiguous, out: out, body: body(contiguous)})
	}
	e.stats.MergeOps++
	return vecSource(&groupCutIter{
		in: in.vec, out: out, idx: idx, body: body(contiguous),
		work: column.NewBatch(in.schema, 0),
	}, out)
}

// continues reports that b's first row belongs to the held group.
func (g *groupCutIter) continues(b *column.Batch) bool {
	if len(g.held) == 0 {
		return false
	}
	h := g.held[len(g.held)-1]
	return keysEqual(h.b, h.b.RowIndex(h.hi-1), b, b.RowIndex(0), g.idx)
}

func (g *groupCutIter) nextBatch() (*column.Batch, error) {
	for {
		if len(g.emit) > 0 {
			b := g.emit[0]
			g.emit = g.emit[1:]
			return b, nil
		}
		if g.done {
			return nil, nil
		}
		b, err := g.in.nextBatch()
		if err != nil {
			return nil, err
		}
		// k is where b's last group starts; the rows before it finish
		// every group begun so far.
		n, k := 0, 0
		if b != nil {
			n, k = b.Rows(), b.Rows()-1
			for k > 0 && keysEqual(b, b.RowIndex(k), b, b.RowIndex(k-1), g.idx) {
				k--
			}
			if k == 0 && g.continues(b) {
				g.held = append(g.held, span{b, 0, n})
				continue
			}
		}
		// The held group is whole: it joins the slice, then b's rows up to
		// its last group, which is held next.
		for _, h := range g.held {
			g.work.AppendPresented(h.b, h.lo, h.hi)
		}
		clear(g.held)
		g.held = g.held[:0]
		if b == nil {
			g.done = true
		} else {
			g.work.AppendPresented(b, 0, k)
			g.held = append(g.held, span{b, k, n})
		}
		if g.work.N == 0 || (!g.done && g.work.N < vecBatchRows) {
			continue
		}
		g.rows = seqRows(g.rows, 0, g.work.N)
		ems, err := g.body(part{b: g.work, rows: g.rows}, part{})
		if err != nil {
			return nil, err
		}
		g.gathered = gather(g.gathered[:0], g.out, ems)
		g.emit = g.gathered
		g.work.Reset()
	}
}

func (g *groupCutIter) close() error { return g.in.close() }

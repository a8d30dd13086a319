package exec

import (
	"tqp/internal/column"
	"tqp/internal/physical"
	"tqp/internal/schema"
)

// groupCutIter runs a one-sided grouping operator over an input whose
// delivered order keeps its groups contiguous: it cuts the batch stream at
// group boundaries and runs the operator's partition body — the one the
// exchange driver runs, told the groups are contiguous — over each arriving
// batch's whole groups, handing their output on before reading further.
// It pulls one batch ahead, so it knows whether a batch's last group goes
// on into the next: only such a group, which straddles a batch boundary, is
// held, and the state is bounded by one group plus two batches — no hash
// table, no global materialization. Groups never span body calls and the
// bodies keep list order, so the concatenated outputs are the driver's
// gathered result exactly.
//
// A batch's whole groups are read in place: the body's rows are the
// batch's own selection or its dense range, in the pull's pooled scratch,
// which goes back once the pull's output is gathered. Only a straddling
// group is copied, once it is whole, into the iterator's work batch. No
// output aliases the scratch or the work batch — the temporal bodies'
// spans are copied out by the gather and the grouping bodies build batches
// of their own.
type groupCutIter struct {
	in         vecIterator
	inSch, out *schema.Schema
	idx        []int // grouping columns (equality defines a group boundary)
	body       partBody

	ahead  *column.Batch // the batch pulled ahead of the one being cut
	primed bool          // ahead holds the input's next batch (nil: the end)
	held   []span        // the straddling group's rows so far, all equal on idx
	work   *column.Batch // the straddling group once whole; built on first use
	ems    []emitted     // a pull's body outputs, gathered together
	// emit is the last pull's output not yet handed on, a window into
	// gathered, whose backing array the next pull's output reuses.
	emit, gathered []*column.Batch
	done           bool
}

// span is the presented rows [lo, hi) of an input batch.
type span struct {
	b      *column.Batch
	lo, hi int
}

// groupSource compiles a one-sided grouping operator from its partition
// body (built for d.Contiguous): a merge decision with no exchange streams
// group-at-a-time, anything else runs on the exchange driver.
func (e *Engine) groupSource(in *source, d physical.Decision, out *schema.Schema, body partBody) *source {
	if !d.Merge || d.Exchange {
		return e.keyedSource(&keyedOp{l: in, lidx: d.Keys, contiguous: d.Contiguous, out: out, body: body})
	}
	return vecSource(&groupCutIter{in: in.vec, inSch: in.schema, out: out, idx: d.Keys, body: body}, out)
}

// next returns the input's next non-empty batch (nil at the end) and the
// one after it, which it pulls ahead.
func (g *groupCutIter) next() (b, ahead *column.Batch, err error) {
	pull := func() (*column.Batch, error) {
		for {
			b, err := g.in.nextBatch()
			if err != nil || b == nil || b.Rows() > 0 {
				return b, err
			}
		}
	}
	if !g.primed {
		if g.ahead, err = pull(); err != nil {
			return nil, nil, err
		}
		g.primed = true
	}
	if b = g.ahead; b != nil {
		if g.ahead, err = pull(); err != nil {
			return nil, nil, err
		}
	}
	return b, g.ahead, nil
}

// sameGroup reports that presented row i of a and presented row j of b are
// equal on the grouping columns.
func (g *groupCutIter) sameGroup(a *column.Batch, i int, b *column.Batch, j int) bool {
	return keysEqual(a, a.RowIndex(i), b, b.RowIndex(j), g.idx)
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
		b, ahead, err := g.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			g.done = true // a held group always goes on into the batch after it
			continue
		}
		sc := getScratch()
		if err = g.cut(sc, b, ahead); err == nil {
			g.gathered = gather(g.gathered[:0], g.out, g.ems)
			g.emit = g.gathered
		}
		clear(g.ems)
		g.ems = g.ems[:0]
		sc.release()
		if err != nil {
			return nil, err
		}
	}
}

// cut runs the body over the groups b completes — the straddling group,
// once it ends in b, copied whole into the work batch, then b's whole
// groups in place — collecting the outputs in g.ems, the in-place ones
// keyed after the straddler's; b's last group is held when it goes on into
// the batch ahead. The row lists live in sc until the gather.
func (g *groupCutIter) cut(sc *scratch, b, ahead *column.Batch) error {
	n, lo, base := b.Rows(), 0, 0
	if len(g.held) > 0 {
		// The straddling group takes b's leading rows of its key.
		h := g.held[0]
		for lo < n && g.sameGroup(h.b, h.lo, b, lo) {
			lo++
		}
		g.held = append(g.held, span{b, 0, lo})
		if lo == n && ahead != nil && g.sameGroup(b, n-1, ahead, 0) {
			return nil // it goes on into the batch ahead
		}
		if g.work == nil {
			g.work = column.NewBatch(g.inSch, 0)
		}
		g.work.Reset()
		for _, h := range g.held {
			g.work.AppendPresented(h.b, h.lo, h.hi)
		}
		clear(g.held)
		g.held = g.held[:0]
		if err := g.run(sc.present(1, g.work, 0, g.work.N), 0); err != nil {
			return err
		}
		base = g.work.N
	}
	hi := n
	if lo < n && ahead != nil && g.sameGroup(b, n-1, ahead, 0) {
		for hi--; hi > lo && g.sameGroup(b, hi-1, b, n-1); hi-- {
		}
		g.held = append(g.held, span{b, hi, n})
	}
	if lo < hi {
		return g.run(sc.present(0, b, lo, hi), base)
	}
	return nil
}

// run runs the body over p, whole groups, and collects its output with
// the sequence keys shifted by base.
func (g *groupCutIter) run(p part, base int) error {
	ems, err := g.body(p, part{})
	for _, m := range ems {
		m.off += base
		g.ems = append(g.ems, m)
	}
	return err
}

func (g *groupCutIter) close() error { return g.in.close() }

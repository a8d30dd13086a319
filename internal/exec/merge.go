package exec

import (
	"tqp/internal/column"
	"tqp/internal/schema"
)

// groupCutIter runs a one-sided grouping operator over an input whose
// delivered order keeps its groups contiguous: it cuts the batch stream at
// group boundaries and runs the operator's partition body — the one the
// exchange driver runs, told the groups are contiguous — over each slice of
// whole groups, handing the slice's output on before reading further. Only
// the batches spanning the unfinished last group are held, so the state is
// bounded by one group plus one input batch: no hash table, no global
// materialization. Groups never span slices and the bodies keep list order,
// so the concatenated slice outputs are the driver's gathered result exactly.
type groupCutIter struct {
	e    *Engine
	in   vecIterator
	sch  *schema.Schema // input schema
	out  *schema.Schema
	idx  []int // grouping columns (equality defines a group boundary)
	body partBody

	held []*column.Batch // rows of the unfinished last group, all equal on idx
	emit []*column.Batch // the last slice's output, not yet handed on
	done bool
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
	e.stats.VectorOps++
	return vecSource(&groupCutIter{e: e, in: in.vec, sch: in.schema, out: out, idx: idx, body: body(contiguous)}, out)
}

// continues reports that b's first row belongs to the held group.
func (g *groupCutIter) continues(b *column.Batch) bool {
	last := g.held[len(g.held)-1]
	return keysEqual(last, last.RowIndex(last.Rows()-1), b, b.RowIndex(0), g.idx)
}

func (g *groupCutIter) nextBatch() (*column.Batch, error) {
	for {
		if len(g.emit) > 0 {
			b := g.emit[0]
			g.emit = g.emit[1:]
			g.e.stats.VectorBatches++
			return b, nil
		}
		if g.done {
			return nil, nil
		}
		b, err := g.in.nextBatch()
		if err != nil {
			return nil, err
		}
		whole := g.held // the slice of whole groups this pull completes
		if b == nil {
			g.done, g.held = true, nil
		} else {
			// k is where b's last group starts; the rows before it finish
			// every group begun so far.
			n := b.Rows()
			k := n - 1
			for k > 0 && keysEqual(b, b.RowIndex(k), b, b.RowIndex(k-1), g.idx) {
				k--
			}
			if k == 0 && len(g.held) > 0 && g.continues(b) {
				g.held = append(g.held, b)
				continue
			}
			if k > 0 {
				whole = append(whole, b.RangeView(0, k))
			}
			g.held = []*column.Batch{b.RangeView(k, n)}
		}
		total := 0
		for _, w := range whole {
			total += w.Rows()
		}
		if total == 0 {
			continue
		}
		// One partition: its sequence keys never meet another's in the
		// gather, so a selection view serves as it is.
		s := column.Concat(g.sch, whole, total)
		p := part{b: s, rows: s.Sel}
		if s.Sel == nil {
			p = wholeBatch(s)
		}
		ems, err := g.body(p, part{})
		if err != nil {
			return nil, err
		}
		g.emit = gather(g.out, ems)
	}
}

func (g *groupCutIter) close() error { return g.in.close() }

// Columnar variants of the grace spill path (grace.go): a budgeted
// operator's input drains as batches with per-row arbiter accounting read
// straight off the column planes, the spill switch writes fan-out
// partitions through the block codec's columnar write path (no tuple is
// materialized on the way to disk), and spilled partitions re-read
// block-at-a-time into batches for the columnar partition bodies. The
// on-disk format, the hash that routes rows to buckets, and the memory
// accounting are all bit-identical to the tuple path's, so leaf/recurse
// decisions, arbiter peaks and replay order match the tuple engine exactly.
package exec

import (
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/spill"
	"tqp/internal/value"
)

// batchRowMemSize is spill.TupleMemSize for a batch row, computed off the
// column planes without building the tuple. The arbiter must account a row
// identically whether it flows boxed or columnar, or the two pipelines'
// spill decisions diverge on the same plan.
func batchRowMemSize(b *batch, i int) int64 {
	n := spill.RowMemSize(len(b.cols))
	for c := range b.cols {
		col := &b.cols[c]
		switch col.kind {
		case value.KindString:
			n += int64(len(col.strs[i]))
		case value.KindInvalid:
			if v := col.vals[i]; v.Kind() == value.KindString {
				n += int64(len(v.AsString()))
			}
		}
	}
	return n
}

// vecGraceSide is the columnar graceSide: compacted resident batches, or
// fan-out partitions written as columnar blocks.
type vecGraceSide struct {
	batches []*batch
	bytes   int64
	count   int
	spilled bool
	parts   []partSource
}

// vecPending buffers one spill bucket's routed rows as (batch, row)
// references until a block's worth accumulates; the flush hands the block
// codec an accessor over the planes.
type vecPending struct {
	seqs  []int
	bs    []*batch
	rows  []int
	bytes int64
}

// drainGraceVec is drainGrace over batches: the input accumulates as
// compacted batches (each growing the arbiter by its rows' accounted bytes)
// until share is exceeded, then everything buffered fans out to columnar
// block writers by the level-0 hash of idx and the rest of the stream
// routes directly. Row sequence tags are arrival positions, and routing
// preserves arrival order within each bucket — the same invariant the
// tuple drain establishes.
func (e *Engine) drainGraceVec(in *source, idx []int, share int64) (*vecGraceSide, error) {
	side := &vecGraceSide{}
	v := in.vecInput()
	arity := in.schema.Len()
	var writers []*spill.Writer
	var pend []vecPending
	abort := func() {
		for _, w := range writers {
			if w != nil {
				w.Abort()
			}
		}
	}
	flushBucket := func(bk int) error {
		p := &pend[bk]
		if len(p.seqs) == 0 {
			return nil
		}
		err := writers[bk].AppendBlockCols(p.seqs, arity, p.bytes, func(row, col int) value.Value {
			return p.bs[row].cols[col].at(p.rows[row])
		})
		p.seqs, p.bs, p.rows, p.bytes = p.seqs[:0], p.bs[:0], p.rows[:0], 0
		return err
	}
	route := func(b *batch, i, seq int, m int64) error {
		h := value.HashSeed()
		for _, c := range idx {
			h = b.cols[c].hashInto(i, h)
		}
		bk := spillBucket(h, 0)
		p := &pend[bk]
		p.seqs = append(p.seqs, seq)
		p.bs = append(p.bs, b)
		p.rows = append(p.rows, i)
		p.bytes += m
		if len(p.seqs) >= spill.BlockRows {
			return flushBucket(bk)
		}
		return nil
	}
	fail := func(err error) (*vecGraceSide, error) {
		abort()
		v.close()
		return nil, err
	}
	for {
		b, err := v.nextBatch()
		if err != nil {
			return fail(err)
		}
		if b == nil {
			break
		}
		if side.spilled {
			for k := 0; k < b.rows(); k++ {
				i := b.rowIndex(k)
				m := batchRowMemSize(b, i)
				side.bytes += m
				if err := route(b, i, side.count, m); err != nil {
					return fail(err)
				}
				side.count++
			}
			continue
		}
		cb := b.compact()
		var bb int64
		for i := 0; i < cb.n; i++ {
			bb += batchRowMemSize(cb, i)
		}
		side.batches = append(side.batches, cb)
		side.count += cb.n
		side.bytes += bb
		e.mem.grow(bb)
		if side.bytes > share {
			side.spilled = true
			writers = make([]*spill.Writer, spillFanout)
			pend = make([]vecPending, spillFanout)
			for bk := range writers {
				if writers[bk], err = e.spillMgr.Create(); err != nil {
					return fail(err)
				}
			}
			seq := 0
			for _, sb := range side.batches {
				for i := 0; i < sb.n; i++ {
					if err := route(sb, i, seq, batchRowMemSize(sb, i)); err != nil {
						return fail(err)
					}
					seq++
				}
			}
			e.mem.release(side.bytes)
			side.batches = nil
		}
	}
	if err := v.close(); err != nil {
		abort()
		return nil, err
	}
	if !side.spilled {
		return side, nil
	}
	side.parts = make([]partSource, spillFanout)
	for bk, w := range writers {
		if err := flushBucket(bk); err != nil {
			abort()
			return nil, err
		}
		f, err := w.Finish()
		if err != nil {
			abort()
			return nil, err
		}
		writers[bk] = nil
		if f.Count() == 0 {
			f.Remove()
			continue
		}
		side.parts[bk] = partSource{file: f, bytes: f.MemBytes(), count: f.Count()}
	}
	return side, nil
}

// vecRdupLeaf re-reads one spilled partition block-at-a-time, runs the
// columnar group table across the blocks' batches, and returns the
// first-occurrence survivors tagged with their arrival positions. File
// order is arrival order within the bucket, so the result is ascending in
// seq — the contract the tagged merge gathers by.
func (e *Engine) vecRdupLeaf(ps partSource, sch *schema.Schema, idx []int) ([]tagged, error) {
	r, err := ps.file.Open()
	if err != nil {
		return nil, err
	}
	groups := newVecGroups(idx, ps.count)
	var res []tagged
	for {
		seqs, rows, ok, err := r.NextBlock()
		if err != nil {
			r.Close()
			return nil, err
		}
		if !ok {
			break
		}
		b := batchOfTuples(sch, rows)
		for i := 0; i < b.n; i++ {
			if _, fresh := groups.groupOf(b, i); fresh {
				res = append(res, tagged{seq: seqs[i], t: rows[i]})
			}
		}
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	ps.file.Remove()
	return res, nil
}

// processGraceVecRdup is processGrace1 with a columnar leaf: partitions
// still too big repartition through the shared (format-identical) streaming
// splitter, and partitions that fit decode into batches for the group
// table instead of materializing a prow list. Every non-empty partition
// here is file-backed: drainGraceVec writes files, and repartitioning a
// file yields files.
func (e *Engine) processGraceVecRdup(ps partSource, sch *schema.Schema, idx []int, lvl int) ([]tagged, error) {
	if ps.count == 0 {
		return nil, nil
	}
	if ps.bytes <= e.opShare() || lvl > maxSpillLevel || ps.count <= 1 {
		e.mem.grow(ps.bytes)
		out, err := e.vecRdupLeaf(ps, sch, idx)
		e.mem.release(ps.bytes)
		return out, err
	}
	subs, err := e.repartition(ps, idx, lvl)
	if err != nil {
		return nil, err
	}
	outs := make([][]tagged, spillFanout)
	for b := range subs {
		if outs[b], err = e.processGraceVecRdup(subs[b], sch, idx, lvl+1); err != nil {
			return nil, err
		}
	}
	return mergeTaggedSorted(outs), nil
}

// vecGraceRdupSource is the budgeted columnar rdup: the input drains as
// batches against the operator share, a resident side dedups in place with
// survivors emitted as selection views over the buffered batches, and a
// spilled side runs the columnar grace recursion with the gathered
// survivors re-batched for the columnar parent.
func (e *Engine) vecGraceRdupSource(in *source, outSchema *schema.Schema, order relation.OrderSpec) *source {
	e.stats.VectorOps++
	sch := in.schema
	idx := identityIdx(sch.Len())
	it := &lazyBatchesIter{compute: func() ([]*batch, error) {
		side, err := e.drainGraceVec(in, idx, e.opShare())
		if err != nil {
			return nil, err
		}
		if !side.spilled {
			groups := newVecGroups(idx, side.count)
			var out []*batch
			for _, b := range side.batches {
				sel := make([]int, 0, b.n)
				for i := 0; i < b.n; i++ {
					if _, fresh := groups.groupOf(b, i); fresh {
						sel = append(sel, i)
					}
				}
				switch {
				case len(sel) == 0:
				case len(sel) == b.n:
					out = append(out, b)
				default:
					out = append(out, b.withSel(sel))
				}
			}
			e.mem.release(side.bytes)
			e.stats.VectorBatches += len(out)
			return out, nil
		}
		e.graceNoteSpill()
		outs := make([][]tagged, spillFanout)
		if err := runTasks(e.workers(), spillFanout, func(b int) error {
			res, err := e.processGraceVecRdup(side.parts[b], sch, idx, 1)
			outs[b] = res
			return err
		}); err != nil {
			return nil, err
		}
		merged := mergeTaggedSorted(outs)
		ts := make([]relation.Tuple, len(merged))
		for k := range ts {
			ts[k] = merged[k].t
		}
		out := tupleBatches(sch, ts)
		e.stats.VectorBatches += len(out)
		return out, nil
	}}
	return vecSource(it, outSchema, order)
}

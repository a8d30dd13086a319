package exec

import (
	"tqp/internal/column"
	"tqp/internal/expr"
	"tqp/internal/physical"
	"tqp/internal/schema"
	"tqp/internal/spill"
)

// pairJoiner carries the physical parameters of one × / ×ᵀ compilation —
// schemas, key columns, residual predicate, time positions — shared by every
// route of the join: sequential, parallel, budgeted hybrid and its spilled
// fallbacks. A keyless product is the same join with no key columns: every
// build row sits in the one group of the empty key, and the kernel emits the
// reference's left-major, right-list order.
type pairJoiner struct {
	out        *schema.Schema
	lw, rw     int
	lidx, ridx []int
	residual   expr.Pred
	temporal   bool
	lt1, lt2   int
}

func newPairJoiner(l, r *source, out *schema.Schema, lidx, ridx []int, residual expr.Pred, temporal bool) *pairJoiner {
	j := &pairJoiner{
		out: out, lw: l.schema.Len(), rw: r.schema.Len(),
		lidx: lidx, ridx: ridx, residual: residual, temporal: temporal,
	}
	if temporal {
		j.lt1, j.lt2 = l.schema.TimeIndices()
	}
	return j
}

// joinIter instantiates the batch hash join kernel for these parameters.
func (j *pairJoiner) joinIter(left vecIterator, right *source) *vecJoinIter {
	return &vecJoinIter{
		left: left, right: right, out: j.out, lw: j.lw, rw: j.rw,
		lidx: j.lidx, ridx: j.ridx, residual: j.residual,
		temporal: j.temporal, lt1: j.lt1, lt2: j.lt2,
	}
}

// joinPart is the spilled join's partition body: the batch hash join kernel
// builds on the partition's right rows and probes its left rows in sequence
// order, every output batch carrying its probe rows' sequence keys to the
// gather.
func (j *pairJoiner) joinPart(lp, rp part) ([]emitted, error) {
	if len(lp.rows) == 0 || len(rp.rows) == 0 {
		return nil, nil
	}
	probe := selView(lp.b, lp.rows)
	v := j.joinIter(&rangeBatchIter{b: probe, hi: probe.Rows()}, batchSource(selView(rp.b, rp.rows), rp.b.Schema))
	v.trackProbes = true
	var out []emitted
	for {
		b, err := v.nextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		seqs := make([]int, b.N)
		for x, i := range v.probes {
			seqs[x] = lp.seq(i)
		}
		out = append(out, emitted{part: part{b: b, rows: identityIdx(b.N), seqs: seqs}})
	}
}

// graceJoinIter is × / ×ᵀ in memory-bounded mode, a hybrid hash join. The
// build (right) side drains against half the operator share on first pull;
// while it stays resident the probe side is a stream between operators — not
// operator state — so it is never drained, and the ordinary batch hash join
// streams against the resident build rows. When the build side overflows, a
// keyed join drains the probe side too and the driver's spilled route pairs
// the buckets, each running the same kernel (joinPart); with no key to
// partition on, the probe side streams against the one spilled build file
// (blockJoinIter).
type graceJoinIter struct {
	e     *Engine
	l, r  *source
	j     *pairJoiner
	inner vecIterator   // the route chosen on first pull
	build *vecGraceSide // resident build side, its bytes returned when the stream ends
}

func (g *graceJoinIter) start() error {
	e, j := g.e, g.j
	rs, err := e.drainGraceVec(g.r, j.ridx, e.opShare()/2)
	if err != nil {
		return err
	}
	switch {
	case !rs.spilled:
		g.build = rs
		v := j.joinIter(g.l.vec, batchSource(rs.b, g.r.schema))
		v.e = e
		g.inner = v
	case len(j.ridx) > 0:
		g.inner = &lazyBatchesIter{compute: func() ([]*column.Batch, error) {
			ls, err := e.drainGraceVec(g.l, j.lidx, e.opShare()/2)
			if err != nil {
				return nil, err
			}
			return e.graceRunFrom(&keyedOp{l: g.l, r: g.r, lidx: j.lidx, ridx: j.ridx, out: j.out, body: j.joinPart}, ls, rs)
		}}
	default:
		// With no keys every drained row landed in the single bucket of the
		// empty-key hash, in list order — the one file the block loop scans.
		e.stats.SpilledOps++
		var file *spill.File
		for _, ps := range rs.parts {
			if ps.file != nil {
				file = ps.file
			}
		}
		g.inner = &blockJoinIter{e: e, left: g.l.vec, j: j, file: file, blk: column.NewBatch(g.r.schema, spill.BlockRows)}
	}
	return nil
}

func (g *graceJoinIter) nextBatch() (*column.Batch, error) {
	if g.inner == nil {
		if err := g.start(); err != nil {
			return nil, err
		}
	}
	b, err := g.inner.nextBatch()
	if b == nil {
		g.release()
	}
	return b, err
}

// release returns the resident build side's bytes to the arbiter.
func (g *graceJoinIter) release() {
	if g.build != nil {
		g.e.releaseResident(g.build)
		g.build = nil
	}
}

func (g *graceJoinIter) close() error {
	g.release()
	if g.inner == nil {
		return g.l.vec.close()
	}
	return g.inner.close()
}

// blockJoinIter is the memory-bounded join with no key to partition on — the
// keyless × / ×ᵀ, or a θ-join whose predicate is all residual — once its
// build side has overflowed into one spill file: a block nested loop. Each
// probe batch, cut to vecBatchRows, meets the file's blocks one at a time —
// a block decodes over the planes of the last and joins through the
// partition body of the spilled keyed join — so the file is scanned once per
// probe batch and the resident state is one block. A block's output is
// ordered by probe row, and the driver's gather merges the blocks' outputs
// by probe position into the reference's left-major, right-list order; the
// output of one probe batch is handed on before the next is read.
type blockJoinIter struct {
	e    *Engine
	left vecIterator
	j    *pairJoiner
	file *spill.File
	r    *spill.Reader
	blk  *column.Batch // the decoded build block

	pb  *column.Batch   // current probe batch
	pk  int             // next presented row of pb
	out []*column.Batch // the gathered output of the last probe range, not yet emitted
}

func (it *blockJoinIter) nextBatch() (*column.Batch, error) {
	for {
		if len(it.out) > 0 {
			b := it.out[0]
			it.out = it.out[1:]
			it.e.stats.VectorBatches++
			return b, nil
		}
		if it.pb == nil || it.pk >= it.pb.Rows() {
			b, err := it.left.nextBatch()
			if err != nil || b == nil {
				return nil, err
			}
			it.pb, it.pk = b, 0
		}
		hi := min(it.pk+vecBatchRows, it.pb.Rows())
		// Compacted, a probe row's index is its sequence key.
		probe := wholeBatch(it.pb.RangeView(it.pk, hi).Compact())
		it.pk = hi
		ems, err := it.joinBlocks(probe)
		if err != nil {
			return nil, err
		}
		it.out = gather(it.j.out, ems)
	}
}

// joinBlocks scans the build file once, joining every block with the probe
// rows; only the decoded block is working set, accounted at the file's
// average row size.
func (it *blockJoinIter) joinBlocks(probe part) ([]emitted, error) {
	var err error
	if it.r == nil {
		it.r, err = it.file.Open()
	} else {
		err = it.r.Rewind()
	}
	if err != nil {
		return nil, err
	}
	var ems []emitted
	for {
		ok, err := readBlock(it.r, it.blk)
		if err != nil || !ok {
			return ems, err
		}
		m := it.file.MemBytes() * int64(it.blk.N) / int64(it.file.Count())
		it.e.mem.grow(m)
		res, err := it.j.joinPart(probe, wholeBatch(it.blk))
		it.e.mem.release(m)
		if err != nil {
			return nil, err
		}
		ems = append(ems, res...)
	}
}

func (it *blockJoinIter) close() error {
	if it.r != nil {
		it.r.Close()
		it.r = nil
	}
	if it.file != nil {
		it.file.Remove()
		it.file = nil
	}
	return it.left.close()
}

// buildProduct compiles × / ×ᵀ with an optional fused join predicate; the
// join idioms dispatch here with their predicate. Every shape is one join
// kernel over the predicate's equality keys — none for a keyless product —
// with the rest of the predicate as its residual. With keys and both inputs
// delivered in a key-covering order the merge join is chosen; otherwise the
// hash join, whose probe side splits across the worker pool under
// Parallelism and which becomes the hybrid join of graceJoinIter under a
// budget.
func (e *Engine) buildProduct(l, r *source, outSchema *schema.Schema, pred expr.Pred, temporal bool) *source {
	lidx, ridx, residual := physical.EquiKeys(pred, outSchema, l.schema.Len(), r.schema.Len())
	j := newPairJoiner(l, r, outSchema, lidx, ridx, residual, temporal)
	e.stats.VectorOps++
	if e.budgeted() {
		return vecSource(&graceJoinIter{e: e, l: l, r: r, j: j}, outSchema)
	}
	if e.parallel() {
		return e.vecParallelJoinSource(l, r, j)
	}
	if len(lidx) > 0 && !e.opts.NoMerge {
		if keys, ok := physical.MergeJoinKeys(l.order, r.order, l.schema, r.schema, lidx, ridx); ok {
			e.stats.MergeJoins++
			return vecSource(&vecMergeJoinIter{
				e: e, left: l.vec, right: r, out: outSchema, lw: j.lw, rw: j.rw,
				cmp: compileVecJoinCmp(l.schema, r.schema, keys), residual: residual,
				temporal: temporal, lt1: j.lt1, lt2: j.lt2,
			}, outSchema)
		}
	}
	v := j.joinIter(l.vec, r)
	v.e = e
	return vecSource(v, outSchema)
}

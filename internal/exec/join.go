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
// streams against the resident build rows (each probe batch split across
// the worker pool under Parallelism). When the build side overflows, a
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
		inner := j.joinIter(g.l.vec, batchSource(rs.b, g.r.schema))
		g.inner = inner
		if e.parallel() {
			g.inner = &probeFanIter{tmpl: inner, workers: e.exchange()}
		}
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
		workers := 1
		if e.parallel() {
			workers = e.exchange()
		}
		g.inner = &blockJoinIter{e: e, left: g.l.vec, j: j, workers: workers, file: file, blk: column.NewBatch(g.r.schema, spill.BlockRows)}
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

// probeFanIter streams a join's probe side through the worker pool against
// a build side already resident: each probe batch's presented rows split
// into contiguous worker ranges (probeRanges), and the batch's output is
// handed on before the next probe batch is read, so the probe side stays a
// stream.
type probeFanIter struct {
	tmpl    *vecJoinIter // the probe stream and the shared build table; never probes itself
	workers int
	out     []*column.Batch // the output of the last probe batch, not yet emitted
}

func (it *probeFanIter) nextBatch() (*column.Batch, error) {
	for len(it.out) == 0 {
		if !it.tmpl.built {
			if err := it.tmpl.buildSide(); err != nil {
				return nil, err
			}
		}
		pb, err := it.tmpl.left.nextBatch()
		if err != nil || pb == nil {
			return nil, err
		}
		if it.out, err = probeRanges(it.tmpl, pb, it.workers); err != nil {
			return nil, err
		}
	}
	b := it.out[0]
	it.out = it.out[1:]
	return b, nil
}

func (it *probeFanIter) close() error { return it.tmpl.close() }

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
	e       *Engine
	left    vecIterator
	j       *pairJoiner
	workers int // a block joins the probe rows in this many ranges at once
	file    *spill.File
	r       *spill.Reader
	blk     *column.Batch // the decoded build block

	pb  *column.Batch   // current probe batch
	pk  int             // next presented row of pb
	out []*column.Batch // the gathered output of the last probe range, not yet emitted
}

func (it *blockJoinIter) nextBatch() (*column.Batch, error) {
	for {
		if len(it.out) > 0 {
			b := it.out[0]
			it.out = it.out[1:]
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
		it.out = gather(nil, it.j.out, ems)
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
		res, err := it.joinBlock(probe)
		it.e.mem.release(m)
		if err != nil {
			return nil, err
		}
		ems = append(ems, res...)
	}
}

// joinBlock joins the probe rows with the decoded block: at once, or split
// into contiguous probe ranges across the worker pool, each building its
// own table over the shared read-only block. The gather orders the ranges'
// outputs by probe row.
func (it *blockJoinIter) joinBlock(probe part) ([]emitted, error) {
	build := wholeBatch(it.blk)
	if it.workers <= 1 {
		return it.j.joinPart(probe, build)
	}
	n := len(probe.rows)
	outs := make([][]emitted, it.workers)
	err := runTasks(it.workers, it.workers, func(p int) error {
		sub := probe
		sub.rows = probe.rows[p*n/it.workers : (p+1)*n/it.workers]
		var err error
		outs[p], err = it.j.joinPart(sub, build)
		return err
	})
	var ems []emitted
	for _, o := range outs {
		ems = append(ems, o...)
	}
	return ems, err
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
// join idioms dispatch here with their decision. Every shape is one join
// kernel over the predicate's equality keys (d.Keys, d.RKeys — none for a
// keyless product) with the rest of the predicate as its residual: the
// merge join when d says so, else the hash join, which becomes the hybrid
// join of graceJoinIter when it spills and splits its probe side across
// the worker pool under an exchange.
func (e *Engine) buildProduct(d physical.Decision, l, r *source, outSchema *schema.Schema, temporal bool) *source {
	j := newPairJoiner(l, r, outSchema, d.Keys, d.RKeys, d.Residual, temporal)
	switch {
	case d.Merge:
		return vecSource(&vecMergeJoinIter{
			left: l.vec, right: r, out: outSchema, lw: j.lw, rw: j.rw,
			cmp: compileVecJoinCmp(l.schema, r.schema, d.MergeKeys), residual: d.Residual,
			temporal: temporal, lt1: j.lt1, lt2: j.lt2,
		}, outSchema)
	case d.Spills:
		return vecSource(&graceJoinIter{e: e, l: l, r: r, j: j}, outSchema)
	case d.Exchange:
		return e.vecParallelJoinSource(l, r, j)
	}
	return vecSource(j.joinIter(l.vec, r), outSchema)
}

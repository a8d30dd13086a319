// The exchange driver: every keyed blocking operator — rdup, \, ∪, rdupᵀ,
// coalᵀ, \ᵀ, ∪ᵀ, 𝒢, 𝒢ᵀ and the spilled keyed join — is one partition body
// (a pure function over rows of a batch, written next to its kernel) plus
// the key columns that decide which rows must meet in one partition. The
// driver drains the operator's inputs and picks the route from what it can
// observe (graceRunFrom):
//
//   - resident: the whole input is one partition and the body runs once.
//     The sequential engine is simply this width-1 case.
//
//   - W-way (Config.Parallelism > 1, no budget): the resident batch splits
//     into W partitions on the worker pool — contiguous whole-group ranges
//     when the delivered order proves the key groups contiguous
//     (physical.Decision.Contiguous), otherwise by the canonical hash of the
//     key columns read off the column planes — so every key group lands
//     wholly in one partition in list order.
//
//   - spilled (Config.MemoryBudget > 0 and the accounted input exceeds the
//     operator's share): the drain switches to writing fan-out hash
//     partitions as columnar blocks to the buckets of one spill pass
//     (package spill) — one file for the whole fan-out; the partitions are
//     then processed one at a time (workers at a time under
//     Parallelism, each bounded by budget/W), and a partition that still
//     exceeds the share re-partitions recursively on fresh bits of the key
//     hash. The recursion is depth-capped, so a single-key skew degrades to
//     in-memory processing rather than looping.
//
// On every route a partition is rows of a batch plus their sequence keys
// (original list positions), a body emits rows under non-decreasing
// sequence keys, and one gather merges the partitions' outputs by
// (sequence key, partition index) straight into output batches. Rows
// sharing a key never span partitions, so the merged list is the reference
// evaluator's exact result at every width and budget.
//
// Scheduling is morsel-driven: workers claim task indices (partitions,
// sort runs, probe ranges) from a shared counter (runTasks). One task per
// partition means a heavily skewed key serializes on its hot partition —
// the price of keeping each key group whole. Pull-based evaluation
// materializes one operator at a time, so a plan's exchanges run their
// pools in sequence, not stacked.
//
// What the budget bounds is the working set of the blocking operators:
// hash tables, materialized build sides, key-group partitions, sort runs.
// Streams between operators and the query's result are outputs, not
// operator state, and are exempt — the standard work_mem contract. Two
// shapes keep unbounded state by construction and are documented rather
// than bounded: an operator with no key columns (a GROUP-BY-less aggregate,
// a temporal relation of periods alone — one global group with nothing to
// partition on) and the fixed floor of a spill pass's write buffer (one
// 16KB buffer per pass, shared by its buckets — not fanout × 16KB) under
// budgets smaller than that.
package exec

import (
	"math"
	"sync/atomic"

	"tqp/internal/column"
	"tqp/internal/period"
	"tqp/internal/schema"
	"tqp/internal/spill"
)

// spillFanout is the grace-hash fan-out: each partitioning pass splits a
// too-big input into this many hash partitions.
const spillFanout = 8

// maxSpillLevel caps the recursive re-partitioning depth. Each level
// consumes 3 fresh bits of the 64-bit canonical key hash, so the cap is a
// skew guard, not a capacity limit: beyond it a partition processes in
// memory regardless of size (all rows share a key that no hash can split).
const maxSpillLevel = 6

// minShare floors the per-operator budget share so degenerate budgets
// (budget ≪ a spill pass's write buffer) still terminate promptly.
const minShare = 4 << 10

// noShare is the drain share of an input that is never spilled: no budget
// is configured, or the operator has no key to partition on.
const noShare = math.MaxInt64

// arbiter tracks the accounted working-set bytes of one engine run. The
// spill decisions themselves are deterministic — each operator compares its
// own accounted bytes against its share (opShare), never the arbiter's
// fluctuating total — so the arbiter is bookkeeping for Stats.PeakBytes,
// safe under the concurrent partition tasks.
type arbiter struct {
	used atomic.Int64
	peak atomic.Int64
}

func (a *arbiter) grow(n int64) {
	u := a.used.Add(n)
	for {
		p := a.peak.Load()
		if u <= p || a.peak.CompareAndSwap(p, u) {
			return
		}
	}
}

func (a *arbiter) release(n int64)  { a.used.Add(-n) }
func (a *arbiter) peakBytes() int64 { return a.peak.Load() }

// budgeted reports that the engine compiles memory-bounded operators.
func (e *Engine) budgeted() bool { return e.opts.MemoryBudget > 0 }

// workers is the partition-task concurrency of the budgeted paths.
func (e *Engine) workers() int {
	if e.opts.Parallelism > 1 {
		return e.opts.Parallelism
	}
	return 1
}

// opShare is one blocking operator's in-memory byte allowance: the budget
// divided into per-worker shares, floored so degenerate configurations
// still make progress.
func (e *Engine) opShare() int64 {
	s := e.opts.MemoryBudget / int64(e.workers())
	if s < minShare {
		s = minShare
	}
	return s
}

// spillBucket routes a canonical key hash to a fan-out bucket at recursion
// level lvl. Levels consume disjoint bit triples of the hash, so keys that
// collide at one level split at the next.
func spillBucket(h uint64, lvl int) int {
	return int((h >> (3 * uint(lvl))) & (spillFanout - 1))
}

// part is one partition of a keyed operator's input, the currency of the
// driver: physical rows of a compacted batch in arrival order, plus their
// sequence keys — the rows' original list positions, which drive the
// deterministic gather.
type part struct {
	b    *column.Batch
	rows []int
	seqs []int // by physical row of b; nil = the row index itself
}

func (p part) seq(i int) int {
	if p.seqs == nil {
		return i
	}
	return p.seqs[i]
}

// wholeBatch presents every row of a compacted batch as one partition.
func wholeBatch(b *column.Batch) part {
	if b == nil {
		return part{}
	}
	return part{b: b, rows: identityIdx(b.N)}
}

// afterLeft offsets the sequence keys of a two-sided operator's right-side
// output (∪, ∪ᵀ) so it gathers behind the whole left list.
const afterLeft = math.MaxInt / 2

// emitted is one stretch of a partition body's output: rows of a batch —
// the partition's own, or one the body built — whose sequence keys are
// non-decreasing in emission order. per, when set, replaces the period of
// each row (the temporal bodies emit (source row, period) spans and never
// touch the value columns); off shifts the sequence keys.
type emitted struct {
	part
	off int
	per []period.Period // by position in rows
}

func (m *emitted) seq(k int) int { return m.off + m.part.seq(m.rows[k]) }

// partBody is one keyed blocking operator's partition body: a pure
// in-memory function over one partition (pair — rp is empty for a one-sided
// operator). It runs concurrently on the worker pool, so it touches no
// engine state.
type partBody func(lp, rp part) ([]emitted, error)

// keyedOp describes one keyed blocking operator to the driver: its inputs,
// the key columns whose equal rows must meet in one partition (left and
// right agree on equal keys by canonical hashing), and its partition body.
type keyedOp struct {
	l, r       *source // r is nil for a one-sided operator
	lidx, ridx []int
	contiguous bool // l's delivered order keeps key groups adjacent
	out        *schema.Schema
	body       partBody
}

// keyedSource compiles a keyed blocking operator: everything happens on
// first pull, in the driver.
func (e *Engine) keyedSource(op *keyedOp) *source {
	return vecSource(&lazyBatchesIter{compute: func() ([]*column.Batch, error) { return e.graceRun(op) }}, op.out)
}

// partSource is one grace partition's rows: resident or on disk. bytes and
// count drive the recursion decision without touching the data.
type partSource struct {
	part
	file  *spill.File
	bytes int64
	count int
}

// vecGraceSide is a fully drained operator input: one compacted resident
// batch when it fit its share, otherwise level-0 hash partitions written as
// columnar blocks.
type vecGraceSide struct {
	b       *column.Batch
	bytes   int64
	count   int
	spilled bool
	parts   []partSource
}

// fanout routes rows to spillFanout buckets of one spill pass by the key
// hash at one level — the one routing of the first partition pass and of
// every repartition. Each bucket copies its rows onto a pending batch of its
// own until a block's worth accumulates, then writes them as one block to
// the pass's file; routing preserves arrival order within each bucket. A
// bucket takes its batch and writer on its first row, so an empty bucket
// costs nothing.
type fanout struct {
	sch     *schema.Schema
	idx     []int
	lvl     int
	pass    *spill.Pass
	writers []*spill.Writer
	pend    []*column.Batch
	seqs    [][]int

	hv         []uint64 // the routed rows' key hashes
	rows, keys []int    // a dense range's rows and consecutive sequence keys
}

// newFanout starts a fan-out pass for rows over sch.
func (e *Engine) newFanout(sch *schema.Schema, idx []int, lvl int) *fanout {
	return &fanout{sch: sch, idx: idx, lvl: lvl, pass: e.spillMgr.NewPass(),
		writers: make([]*spill.Writer, spillFanout), pend: make([]*column.Batch, spillFanout), seqs: make([][]int, spillFanout)}
}

// route sends b's physical rows rows[k], tagged seqs[k], to their buckets,
// hashing the batch's key columns in one pass.
func (f *fanout) route(b *column.Batch, rows, seqs []int) error {
	f.hv = resize(f.hv, len(rows))
	hashRows(b, rows, f.idx, f.hv)
	for k, i := range rows {
		bk := spillBucket(f.hv[k], f.lvl)
		if f.pend[bk] == nil {
			f.pend[bk] = column.NewBatch(f.sch, spill.BlockRows)
		}
		f.pend[bk].AppendRow(b, i)
		f.seqs[bk] = append(f.seqs[bk], seqs[k])
		if len(f.seqs[bk]) < spill.BlockRows {
			continue
		}
		if err := f.flush(bk); err != nil {
			return err
		}
	}
	return nil
}

// routeFrom routes b's presented rows [lo, hi), tagged with consecutive
// sequence keys from first.
func (f *fanout) routeFrom(b *column.Batch, lo, hi, first int) error {
	rows := b.Sel
	if rows == nil {
		f.rows = seqRows(f.rows, lo, hi)
		rows = f.rows
	} else {
		rows = rows[lo:hi]
	}
	f.keys = seqRows(f.keys, first, first+hi-lo)
	return f.route(b, rows, f.keys)
}

// flush writes a bucket's pending rows and empties its batch for reuse.
func (f *fanout) flush(bk int) error {
	if len(f.seqs[bk]) == 0 {
		return nil
	}
	if f.writers[bk] == nil {
		f.writers[bk] = f.pass.Writer()
	}
	err := f.writers[bk].Write(f.seqs[bk], f.pend[bk])
	f.pend[bk].Reset()
	f.seqs[bk] = f.seqs[bk][:0]
	return err
}

// finish flushes every bucket and seals the written ones into partitions;
// on failure every bucket still open is aborted.
func (f *fanout) finish() ([]partSource, error) {
	parts := make([]partSource, spillFanout)
	for bk := range f.writers {
		err := f.flush(bk)
		var file *spill.File
		if err == nil && f.writers[bk] != nil {
			file, err = f.writers[bk].Finish()
			f.writers[bk] = nil
		}
		if err != nil {
			f.abort()
			for _, ps := range parts {
				if ps.file != nil {
					ps.file.Remove()
				}
			}
			return nil, err
		}
		if file != nil {
			parts[bk] = partSource{file: file, bytes: file.MemBytes(), count: file.Count()}
		}
	}
	return parts, nil
}

// abort drops every bucket still open.
func (f *fanout) abort() {
	for bk, w := range f.writers {
		if w != nil {
			w.Abort()
			f.writers[bk] = nil
		}
	}
}

// drainGraceVec is the one drain: it consumes an input into memory until
// share is exceeded, then switches to spilling — everything buffered fans
// out to columnar block writers by the level-0 hash of idx and the rest of
// the stream routes directly, no tuple materialized on the way to disk.
// Rows are tagged with their arrival positions and routing preserves
// arrival order within each bucket, so key groups land whole and in list
// order — the invariant every partition body relies on. Each buffered row
// grows the arbiter by its accounted bytes; an input drained without a
// share is neither accounted nor spilled.
func (e *Engine) drainGraceVec(in *source, idx []int, share int64) (*vecGraceSide, error) {
	if share == noShare {
		b, err := vecDrainOne(in.vec, in.schema)
		if err != nil {
			return nil, err
		}
		return &vecGraceSide{b: b, count: b.N}, nil
	}
	side := &vecGraceSide{}
	v := in.vec
	var resident []*column.Batch
	var fan *fanout
	fail := func(err error) (*vecGraceSide, error) {
		if fan != nil {
			fan.abort()
		}
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
		n, k := b.Rows(), 0
		if !side.spilled {
			// Account row by row, so the switch happens at the row that
			// crosses the share and the peak overshoots by one row at most.
			var bb int64
			for k < n && side.bytes+bb <= share {
				bb += b.MemSize(b.RowIndex(k))
				k++
			}
			side.bytes += bb
			side.count += k
			e.mem.grow(bb)
			resident = append(resident, b.RangeView(0, k))
			if side.bytes <= share {
				continue
			}
			// Switch to spilling: everything buffered so far fans out, and
			// the resident bytes return to the arbiter.
			side.spilled = true
			fan = e.newFanout(in.schema, idx, 0)
			seq := 0
			for _, rb := range resident {
				if err := fan.routeFrom(rb, 0, rb.Rows(), seq); err != nil {
					return fail(err)
				}
				seq += rb.Rows()
			}
			e.mem.release(side.bytes)
			resident = nil
		}
		for x := k; x < n; x++ {
			side.bytes += b.MemSize(b.RowIndex(x))
		}
		if err := fan.routeFrom(b, k, n, side.count); err != nil {
			return fail(err)
		}
		side.count += n - k
	}
	if err := v.close(); err != nil {
		if fan != nil {
			fan.abort()
		}
		return nil, err
	}
	if !side.spilled {
		side.b = column.Concat(in.schema, resident, side.count).Compact()
		return side, nil
	}
	parts, err := fan.finish()
	if err != nil {
		return nil, err
	}
	side.parts = parts
	return side, nil
}

// releaseResident returns a side's resident bytes to the arbiter once its
// rows are no longer the operator's working set.
func (e *Engine) releaseResident(side *vecGraceSide) {
	if !side.spilled && side.bytes > 0 {
		e.mem.release(side.bytes)
	}
}

// splitPart partitions resident rows into fan-out buckets at the given
// level, preserving order. No disk is involved: the buckets are row lists
// over the same batch.
func splitPart(p part, idx []int, lvl int) []partSource {
	parts := make([]partSource, spillFanout)
	hs := make([]uint64, len(p.rows))
	hashRows(p.b, p.rows, idx, hs)
	for k, i := range p.rows {
		ps := &parts[spillBucket(hs[k], lvl)]
		ps.b, ps.seqs = p.b, p.seqs
		ps.rows = append(ps.rows, i)
		ps.bytes += p.b.MemSize(i)
		ps.count++
	}
	return parts
}

// repartition splits one partition at the given level: resident rows split
// in memory, and an on-disk partition streams a block at a time through the
// fan-out's routing into a fresh pass, its source bucket removed as soon as
// it is consumed.
func (e *Engine) repartition(ps partSource, sch *schema.Schema, idx []int, lvl int) ([]partSource, error) {
	if ps.file == nil {
		return splitPart(ps.part, idx, lvl), nil
	}
	fan := e.newFanout(sch, idx, lvl)
	r, err := ps.file.Open()
	if err != nil {
		fan.abort()
		return nil, err
	}
	fail := func(err error) ([]partSource, error) {
		r.Close()
		fan.abort()
		return nil, err
	}
	blk := column.NewBatch(sch, spill.BlockRows)
	for {
		blk.Reset()
		seqs, ok, err := r.Next(blk)
		if err != nil {
			return fail(err)
		}
		if !ok {
			break
		}
		fan.rows = seqRows(fan.rows, 0, blk.N)
		if err := fan.route(blk, fan.rows, seqs); err != nil {
			return fail(err)
		}
	}
	if err := r.Close(); err != nil {
		fan.abort()
		return nil, err
	}
	ps.file.Remove()
	return fan.finish()
}

// loadPart is the one loader: it materializes a partition as rows of a
// batch. A spilled partition decodes block-at-a-time onto column planes,
// its write order being arrival order within the bucket; the arbiter grows
// by its bytes (the caller releases after the body ran) and the bucket is
// removed from its pass.
func (e *Engine) loadPart(ps partSource, sch *schema.Schema) (part, error) {
	if ps.file == nil {
		return ps.part, nil
	}
	r, err := ps.file.Open()
	if err != nil {
		return part{}, err
	}
	b := column.NewBatch(sch, ps.count)
	seqs := make([]int, 0, ps.count)
	for {
		bs, ok, err := r.Next(b)
		if err != nil {
			r.Close()
			return part{}, err
		}
		if !ok {
			break
		}
		seqs = append(seqs, bs...)
	}
	if err := r.Close(); err != nil {
		return part{}, err
	}
	ps.file.Remove()
	e.mem.grow(ps.bytes)
	return part{b: b, rows: identityIdx(b.N), seqs: seqs}, nil
}

// processGrace runs the body over one partition (pair), re-partitioning
// while it exceeds the share and can still split. Both sides of a pair
// split together, each hashing its own key columns. A leaf's output is
// copied out of the loaded partition at once, so what stays resident until
// the gather is the operator's output, never its input.
func (e *Engine) processGrace(op *keyedOp, lp, rp partSource, lvl int) ([]emitted, error) {
	if lp.count == 0 && rp.count == 0 {
		return nil, nil
	}
	var rsch *schema.Schema // nil for a one-sided operator, whose rp is empty
	if op.r != nil {
		rsch = op.r.schema
	}
	if lp.bytes+rp.bytes <= e.opShare() || lvl > maxSpillLevel || lp.count+rp.count <= 1 {
		l, err := e.loadPart(lp, op.l.schema)
		if err != nil {
			return nil, err
		}
		r, err := e.loadPart(rp, rsch)
		if err != nil {
			return nil, err
		}
		out, err := op.body(l, r)
		for k := range out {
			out[k] = detach(op.out, out[k])
		}
		if lp.file != nil {
			e.mem.release(lp.bytes)
		}
		if rp.file != nil {
			e.mem.release(rp.bytes)
		}
		return out, err
	}
	lsubs, err := e.repartition(lp, op.l.schema, op.lidx, lvl)
	if err != nil {
		return nil, err
	}
	rsubs, err := e.repartition(rp, rsch, op.ridx, lvl)
	if err != nil {
		return nil, err
	}
	var outs []emitted
	for b := range lsubs {
		res, err := e.processGrace(op, lsubs[b], rsubs[b], lvl+1)
		if err != nil {
			return nil, err
		}
		outs = append(outs, res...)
	}
	return outs, nil
}

// graceNoteSpill records that one operator actually spilled, and — when the
// engine is also parallel — that its partitions fan out to the worker pool.
func (e *Engine) graceNoteSpill() {
	e.stats.SpilledOps++
	if w := e.workers(); w > 1 {
		e.stats.ParallelOps++
		e.stats.Partitions += w
	}
}

// graceRun drives a keyed blocking operator end to end: drain the inputs
// (spilling past the share — the whole share for a one-sided operator,
// half each for a two-sided one), then run the route graceRunFrom picks.
func (e *Engine) graceRun(op *keyedOp) ([]*column.Batch, error) {
	share := int64(noShare)
	if e.budgeted() && len(op.lidx) > 0 {
		share = e.opShare()
		if op.r != nil {
			share /= 2
		}
	}
	ls, err := e.drainGraceVec(op.l, op.lidx, share)
	if err != nil {
		if op.r != nil {
			op.r.vec.close()
		}
		return nil, err
	}
	rs := &vecGraceSide{}
	if op.r != nil {
		if rs, err = e.drainGraceVec(op.r, op.ridx, share); err != nil {
			return nil, err
		}
	}
	return e.graceRunFrom(op, ls, rs)
}

// graceRunFrom is graceRun after the drains (the hybrid join, graceJoinIter,
// drains its sides itself) and the one place the route is chosen: spilled fan-out
// partitions with recursion when either side overflowed its share (a
// resident side splits in memory to pair up), W partitions on the worker
// pool under plain parallelism, otherwise the whole input as one partition.
func (e *Engine) graceRunFrom(op *keyedOp, ls, rs *vecGraceSide) ([]*column.Batch, error) {
	defer e.releaseResident(ls)
	defer e.releaseResident(rs)
	var outs [][]emitted
	var err error
	switch {
	case ls.spilled || rs.spilled:
		e.graceNoteSpill()
		lparts, rparts := ls.parts, rs.parts
		if !ls.spilled {
			lparts = splitPart(wholeBatch(ls.b), op.lidx, 0)
		}
		if !rs.spilled {
			rparts = splitPart(wholeBatch(rs.b), op.ridx, 0)
		}
		outs = make([][]emitted, spillFanout)
		err = runTasks(e.workers(), spillFanout, func(b int) error {
			res, err := e.processGrace(op, lparts[b], rparts[b], 1)
			outs[b] = res
			return err
		})
	case e.parallel() && !e.budgeted() && len(op.lidx) > 0:
		w := e.exchange()
		var lparts, rparts []part
		if op.r == nil && op.contiguous {
			lparts = rangeParts(ls.b, op.lidx, w)
			rparts = make([]part, len(lparts))
		} else {
			lparts = hashParts(ls.b, op.lidx, w)
			rparts = hashParts(rs.b, op.ridx, w)
		}
		outs = make([][]emitted, len(lparts))
		err = runTasks(w, len(lparts), func(p int) error {
			res, err := op.body(lparts[p], rparts[p])
			outs[p] = res
			return err
		})
	default:
		outs = make([][]emitted, 1)
		outs[0], err = op.body(wholeBatch(ls.b), wholeBatch(rs.b))
	}
	if err != nil {
		return nil, err
	}
	var ems []emitted
	for _, o := range outs {
		ems = append(ems, o...)
	}
	bs := gather(nil, op.out, ems)
	return bs, nil
}

// seg names a run of output rows of a gather: positions [lo, hi) of
// stretch m, consecutive in the output.
type seg struct{ m, lo, hi int }

// copyRows builds a fresh batch from the rows segs lists, column-wise:
// value columns straight from the source planes and — when a stretch
// replaces periods — the period columns written from the periods.
func copyRows(out *schema.Schema, ems []emitted, segs []seg, replaced bool) *column.Batch {
	total := 0
	for _, sg := range segs {
		total += sg.hi - sg.lo
	}
	b := column.NewBatch(out, total)
	t1, t2 := -1, -1
	if replaced {
		t1, t2 = out.TimeIndices()
	}
	for c := range b.Cols {
		if c == t1 || c == t2 {
			continue
		}
		for _, sg := range segs {
			b.Cols[c].AppendIndexed(&ems[sg.m].b.Cols[c], ems[sg.m].rows[sg.lo:sg.hi])
		}
	}
	if replaced {
		// A schema types T1 and T2 as chronons (schema.New), so the batch
		// holds them on int64 planes: write the periods straight onto them.
		starts, ends := &b.Cols[t1], &b.Cols[t2]
		for _, sg := range segs {
			m := &ems[sg.m]
			for k := sg.lo; k < sg.hi; k++ {
				p := m.b.PeriodAt(t1, t2, m.rows[k])
				if m.per != nil {
					p = m.per[k]
				}
				starts.Ints, ends.Ints = append(starts.Ints, int64(p.Start)), append(ends.Ints, int64(p.End))
			}
		}
	}
	b.N = total
	return b
}

// gather is the deterministic ordered gather of every route: the
// partitions' outputs merge by (sequence key, partition index) into output
// batches, appended to bs. Outputs that do not interleave — a single
// partition, the range exchange's segments, ∪'s left list ahead of its
// right survivors — pass as one batch per source, a selection view over its
// planes where no period is replaced; interleaved outputs of many sources
// copy row by row into one batch.
func gather(bs []*column.Batch, out *schema.Schema, ems []emitted) []*column.Batch {
	live, temporal := 0, false
	for k := range ems {
		if len(ems[k].rows) > 0 {
			live++
			temporal = temporal || ems[k].per != nil
		}
	}
	// segs lists the merged output; runs counts its maximal stretches
	// reading one source batch.
	var segBuf [mergeStack]seg
	segs := segBuf[:0]
	runs := 0
	mergeBySeq(len(ems),
		func(m int) int { return len(ems[m].rows) },
		func(m, k int) int { return ems[m].seq(k) },
		func(m, lo, hi int) {
			if last := len(segs) - 1; last >= 0 && segs[last].m == m && segs[last].hi == lo {
				segs[last].hi = hi
				return
			}
			if len(segs) == 0 || ems[segs[len(segs)-1].m].b != ems[m].b {
				runs++
			}
			segs = append(segs, seg{m, lo, hi})
		})
	if runs > live {
		return append(bs, copyRows(out, ems, segs, temporal))
	}
	// Few runs: the outputs do not interleave, and each run becomes a batch
	// of its own.
	for lo := 0; lo < len(segs); {
		src, replaced := ems[segs[lo].m].b, false
		hi := lo
		for ; hi < len(segs) && ems[segs[hi].m].b == src; hi++ {
			replaced = replaced || ems[segs[hi].m].per != nil
		}
		if replaced {
			bs = append(bs, copyRows(out, ems, segs[lo:hi], true))
		} else {
			// One segment's rows serve as the selection as they are; the
			// capacity clamp makes the first further append copy instead of
			// writing into the stretch's own slice.
			rows := ems[segs[lo].m].rows[segs[lo].lo:segs[lo].hi:segs[lo].hi]
			for _, sg := range segs[lo+1 : hi] {
				rows = append(rows, ems[sg.m].rows[sg.lo:sg.hi]...)
			}
			bs = append(bs, selView(src, rows))
		}
		lo = hi
	}
	return bs
}

// selView presents the given physical rows of a compacted batch: the batch
// itself when they are all of its rows in order, else a selection view.
func selView(b *column.Batch, rows []int) *column.Batch {
	if len(rows) == b.N {
		whole := true
		for k, i := range rows {
			if i != k {
				whole = false
				break
			}
		}
		if whole {
			return b
		}
	}
	return b.WithSel(rows)
}

// detach copies a spilled leaf's output stretch out of its loaded
// partition, so the partition's planes can be collected. A stretch at least
// half the size of the batch it reads — a body-built batch, a pass-through,
// an operator that keeps most of its input — pins no more than it is worth
// and is kept as it is.
func detach(out *schema.Schema, m emitted) emitted {
	if len(m.rows) == 0 || len(m.rows)*2 >= m.b.N {
		return m
	}
	seqs := make([]int, len(m.rows))
	for k := range seqs {
		seqs[k] = m.seq(k)
	}
	b := copyRows(out, []emitted{m}, []seg{{0, 0, len(m.rows)}}, m.per != nil)
	return emitted{part: part{b: b, rows: identityIdx(b.N), seqs: seqs}}
}

// mergeBySeq is the one k-way merge loop behind every gather: stream p's
// items are non-decreasing in seq, and the merge pops the smallest
// (seq, stream index) head from a binary min-heap — O(N·log k) — emitting
// the items as ranges [lo, hi) of their stream; once a single stream is
// left its whole remainder is one range. Items sharing a seq — one probe
// tuple's join matches, one row's fragments — always live in a single
// stream, so they keep their stream-local emission order. The heap is a
// hand-rolled cursor heap (h holds stream indices, pos the heads): this
// runs once per output row of every exchange, where the interface dispatch
// of container/heap is measurable.
//
// Up to mergeStack streams, the cursors live on the stack: a gather of one
// partition's output, as the streaming group operators make one per slice,
// then allocates nothing to merge.
func mergeBySeq(streams int, size func(p int) int, seq func(p, i int) int, emit func(p, lo, hi int)) {
	var posBuf, heapBuf [mergeStack]int
	pos, h := posBuf[:0], heapBuf[:0]
	if streams > mergeStack {
		pos, h = make([]int, 0, streams), make([]int, 0, streams)
	}
	pos = pos[:streams]
	less := func(a, b int) bool {
		sa, sb := seq(a, pos[a]), seq(b, pos[b])
		if sa != sb {
			return sa < sb
		}
		return a < b
	}
	siftDown := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			if c+1 < len(h) && less(h[c+1], h[c]) {
				c++
			}
			if !less(h[c], h[i]) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for p := 0; p < streams; p++ {
		if size(p) > 0 {
			h = append(h, p)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(h) > 1 {
		p := h[0]
		emit(p, pos[p], pos[p]+1)
		pos[p]++
		if pos[p] >= size(p) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(0)
	}
	if len(h) == 1 {
		emit(h[0], pos[h[0]], size(h[0]))
	}
}

// mergeStack is how many streams mergeBySeq merges without allocating.
const mergeStack = 16

// batchSource wraps a resident batch as an ordinary pipeline stage — the
// build side a budgeted join drained and found to fit, or one partition's.
func batchSource(b *column.Batch, sch *schema.Schema) *source {
	return vecSource(&rangeBatchIter{b: b, hi: b.Rows()}, sch)
}

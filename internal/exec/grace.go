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
//   - W-way (Config.Parallelism > 1, budgeted or not, nothing spilled): the
//     resident batch splits into W partitions on the worker pool —
//     contiguous whole-group ranges when the delivered order proves the key
//     groups contiguous (physical.Decision.Contiguous), otherwise by the
//     canonical hash of the key columns read off the column planes — so
//     every key group lands wholly in one partition in list order.
//
//   - spilled (Config.MemoryBudget > 0 and an input crossed its share): the
//     drain turns hybrid — it routes its rows into fan-out hash buckets,
//     keeps the buckets that fit the share resident and writes the rest as
//     columnar blocks to the buckets of one spill pass (package spill) — one
//     file for the whole fan-out. The resident bucket pairs run first, then
//     the spilled ones load one at a time (workers at a time under
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
// What the budget bounds is the working set of the blocking operators —
// hash tables, materialized build sides, key-group partitions, sort runs —
// priced by their plane bytes (column.Batch.Bytes).
// Streams between operators and the query's result are outputs, not
// operator state, and are exempt — the standard work_mem contract. Two
// shapes keep unbounded state by construction and are documented rather
// than bounded: an operator with no key columns (a GROUP-BY-less aggregate,
// a temporal relation of periods alone — one global group with nothing to
// partition on) and the fixed floor of a spill pass's write buffer (one
// 16KB buffer per pass, shared by its buckets — not fanout × 16KB) under
// budgets smaller than that. A two-sided operator whose one side keeps a
// bucket resident while the other side spilled it holds that resident half
// while the spilled pairs load, at most one share on top of them.
package exec

import (
	"cmp"
	"math"
	"slices"
	"sync"
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
// driver: physical rows of a batch in arrival order — a selection view's
// rows are read through its planes, never its selection — plus their
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
	buf *fragBuf        // the pooled buffer rows and per live in, if any
}

// fragBuf holds a temporal body's output — its rows and their replaced
// periods — from the pool until the gather that copies them, which puts it
// back: a body call allocates no output of its own.
type fragBuf struct {
	rows []int
	per  []period.Period
}

var fragPool = sync.Pool{New: func() any { return new(fragBuf) }}

// getFragBuf takes an empty fragment buffer with room for n from the pool.
func getFragBuf(n int) *fragBuf {
	fb := fragPool.Get().(*fragBuf)
	fb.rows, fb.per = slices.Grow(fb.rows[:0], n), slices.Grow(fb.per[:0], n)
	return fb
}

// over presents the buffer as a stretch of b's rows with sequence keys seqs.
func (fb *fragBuf) over(b *column.Batch, seqs []int) emitted {
	return emitted{part: part{b: b, rows: fb.rows, seqs: seqs}, per: fb.per, buf: fb}
}

// releaseFrags returns the fragment buffers of stretches whose rows have
// been copied to their pool.
func releaseFrags(ems []emitted) {
	for k := range ems {
		if fb := ems[k].buf; fb != nil {
			ems[k].buf = nil
			fragPool.Put(fb)
		}
	}
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
// count drive the recursion decision without touching the data; a resident
// partition's bytes are accounted until its pair has run.
type partSource struct {
	part
	file   *spill.File
	bytes  int64
	count  int
	shared bool // rows of a batch split in memory, which outlives the partition
}

// vecGraceSide is a fully drained operator input: one compacted resident
// batch when it fit its share, otherwise the level-0 hash buckets of the
// hybrid drain, each resident or spilled.
type vecGraceSide struct {
	b       *column.Batch
	bytes   int64 // b's accounted bytes
	count   int
	spilled bool // partitioned into parts, at least one of them on disk
	parts   []partSource
}

// fanout routes rows to the spillFanout buckets of one partitioning step
// by the key hash at one level — the one routing of the drain and of every
// repartition. Each routed batch is grouped by bucket once and each
// bucket's rows gather plane-wise onto a batch of the bucket's own, so
// routing preserves arrival order within each bucket. A bucket is resident
// or spilled: a spilled bucket writes its rows a block at a time to the
// step's one spill pass, and a resident bucket keeps its rows in memory,
// accounted against the step's share. A repartition's buckets all spill;
// the drain's start resident, and whenever what they hold would cross the
// share the largest of them spills (hybrid hash). A bucket takes its batch
// and writer on its first row, so an empty bucket costs nothing.
type fanout struct {
	e        *Engine
	sch      *schema.Schema
	idx      []int
	lvl      int
	share    int64 // what the resident buckets may hold; 0 = every bucket spills
	pass     *spill.Pass
	writers  [spillFanout]*spill.Writer
	pend     [spillFanout]*column.Batch // a resident bucket's rows, or a spilled one's not yet written
	seqs     [spillFanout][]int
	spilled  [spillFanout]bool
	held     [spillFanout]int64 // a resident bucket's accounted bytes
	resident int64              // the sum of held

	hv          []uint64 // the routed rows' key hashes
	order, oseq []int    // the routed rows and their sequence keys, grouped by bucket
	rows, keys  []int    // a dense range's rows and consecutive sequence keys
}

// newFanout starts a partitioning step over sch whose resident buckets may
// hold share bytes (0: every bucket spills).
func (e *Engine) newFanout(sch *schema.Schema, idx []int, lvl int, share int64) *fanout {
	f := &fanout{e: e, sch: sch, idx: idx, lvl: lvl, share: share, pass: e.spillMgr.NewPass()}
	for bk := range f.spilled {
		f.spilled[bk] = share == 0
	}
	return f
}

// route sends b's physical rows rows[k], tagged seqs[k], to their buckets:
// one hashing pass over the key columns, one grouping of the rows by
// bucket, and one plane-wise gather per bucket.
func (f *fanout) route(b *column.Batch, rows, seqs []int) error {
	if len(rows) == 0 {
		return nil
	}
	f.hv = resize(f.hv, len(rows))
	column.HashRows(b, rows, f.idx, f.hv)
	var bounds [spillFanout + 1]int
	for _, h := range f.hv {
		bounds[spillBucket(h, f.lvl)+1]++
	}
	var at [spillFanout]int
	for bk := range at {
		bounds[bk+1] += bounds[bk]
		at[bk] = bounds[bk]
	}
	f.order, f.oseq = resize(f.order, len(rows)), resize(f.oseq, len(rows))
	for k, h := range f.hv {
		bk := spillBucket(h, f.lvl)
		f.order[at[bk]], f.oseq[at[bk]] = rows[k], seqs[k]
		at[bk]++
	}
	view := b.WithSel(f.order)
	if f.share > 0 {
		if err := f.fit(view, &bounds); err != nil {
			return err
		}
	}
	for bk := range f.pend {
		lo, hi := bounds[bk], bounds[bk+1]
		if lo == hi {
			continue
		}
		if f.spilled[bk] && len(f.seqs[bk]) == 0 && hi-lo >= spill.BlockRows {
			// Whole blocks of a spilled bucket's rows go to its writer
			// straight from the routed batch.
			w := (hi - lo) - (hi-lo)%spill.BlockRows
			if err := f.write(bk, f.oseq[lo:lo+w], view.RangeView(lo, lo+w)); err != nil {
				return err
			}
			if lo += w; lo == hi {
				continue
			}
		}
		if f.pend[bk] == nil {
			// A spilled bucket's batch holds a block; a resident one's
			// grows from what arrived.
			capHint := hi - lo
			if f.spilled[bk] {
				capHint = max(capHint, spill.BlockRows)
			}
			f.pend[bk] = column.NewBatch(f.sch, capHint)
		}
		f.pend[bk].AppendPresented(view, lo, hi)
		f.seqs[bk] = append(f.seqs[bk], f.oseq[lo:hi]...)
		if f.spilled[bk] && len(f.seqs[bk]) >= spill.BlockRows {
			if err := f.flush(bk, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// fit keeps the resident buckets within the share before a routed batch's
// rows join them: while what they hold plus what the batch adds to them
// would cross it, the largest resident bucket spills. The batch's bytes
// are priced once per bucket range, and what stays resident grows the
// arbiter, so the accounted bytes never exceed the share.
func (f *fanout) fit(view *column.Batch, bounds *[spillFanout + 1]int) error {
	var add [spillFanout]int64
	var total int64
	for bk := range add {
		if !f.spilled[bk] && bounds[bk] < bounds[bk+1] {
			add[bk] = view.Bytes(bounds[bk], bounds[bk+1])
			total += add[bk]
		}
	}
	for f.resident+total > f.share {
		big := -1
		for bk := range add {
			if !f.spilled[bk] && (big < 0 || f.held[bk]+add[bk] > f.held[big]+add[big]) {
				big = bk
			}
		}
		total -= add[big]
		add[big] = 0
		if err := f.evict(big); err != nil {
			return err
		}
	}
	f.resident += total
	f.e.mem.grow(total)
	for bk := range add {
		f.held[bk] += add[bk]
	}
	return nil
}

// evict turns resident bucket bk into a spilled one: its rows are written
// to the pass and their bytes return to the arbiter.
func (f *fanout) evict(bk int) error {
	f.spilled[bk] = true
	f.resident -= f.held[bk]
	f.e.mem.release(f.held[bk])
	f.held[bk] = 0
	if f.pend[bk] == nil {
		return nil
	}
	err := f.flush(bk, true)
	// The bucket's later rows arrive a block's worth at a time.
	f.pend[bk], f.seqs[bk] = nil, nil
	return err
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

// flush writes a spilled bucket's pending rows — whole blocks of them, or
// all of them — and keeps the rest pending.
func (f *fanout) flush(bk int, all bool) error {
	n := len(f.seqs[bk])
	if !all {
		n -= n % spill.BlockRows
	}
	if n == 0 {
		return nil
	}
	err := f.write(bk, f.seqs[bk][:n], f.pend[bk])
	f.pend[bk].DropFront(n)
	f.seqs[bk] = f.seqs[bk][:copy(f.seqs[bk], f.seqs[bk][n:])]
	return err
}

// write appends rows tagged seqs to spilled bucket bk's file, opening its
// writer on the bucket's first write.
func (f *fanout) write(bk int, seqs []int, b *column.Batch) error {
	if f.writers[bk] == nil {
		f.writers[bk] = f.pass.Writer()
	}
	return f.writers[bk].Write(seqs, b)
}

// finish seals the step into its partitions: a spilled bucket flushes and
// becomes a file, and a resident bucket keeps its batch — its rows in
// arrival order — with its accounted bytes. On failure every bucket still
// open is aborted.
func (f *fanout) finish() ([]partSource, error) {
	parts := make([]partSource, spillFanout)
	for bk := range f.writers {
		if !f.spilled[bk] {
			if b := f.pend[bk]; b != nil {
				parts[bk] = partSource{part: part{b: b, rows: identityIdx(b.N), seqs: f.seqs[bk]}, bytes: f.held[bk], count: b.N}
			}
			continue
		}
		err := f.flush(bk, true)
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

// drainGraceVec is the one drain: it consumes an input into memory while it
// fits share. The batch that would cross the share switches it to the
// hybrid drain: everything buffered, then the rest of the stream, routes
// into the level-0 hash buckets of idx, whose resident rest stays within
// the share by spilling the largest buckets to columnar block writers — no
// tuple materialized on the way to disk. Rows are tagged with their arrival
// positions and routing preserves arrival order within each bucket, so key
// groups land whole and in list order — the invariant every partition body
// relies on. Resident rows grow the arbiter by their bytes, priced once per
// batch (or bucket) range; an input drained without a share is neither
// accounted nor spilled.
func (e *Engine) drainGraceVec(in *source, idx []int, share int64) (*vecGraceSide, error) {
	if share == noShare {
		// A lone batch stays as it arrived, a selection view included: the
		// one-partition route reads it in place (scratch.present), and the
		// W-way route compacts it first.
		b, err := vecDrainOneView(in.vec, in.schema)
		if err != nil {
			return nil, err
		}
		return &vecGraceSide{b: b, count: b.Rows()}, nil
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
		n := b.Rows()
		if fan == nil {
			if bb := b.Bytes(0, n); side.bytes+bb <= share {
				side.bytes += bb
				side.count += n
				e.mem.grow(bb)
				resident = append(resident, b)
				continue
			}
			// Switch to the hybrid drain: the buffered rows route into the
			// buckets, which take over their accounting.
			fan = e.newFanout(in.schema, idx, 0, share)
			e.mem.release(side.bytes)
			side.bytes = 0
			seq := 0
			for _, rb := range resident {
				if err := fan.routeFrom(rb, 0, rb.Rows(), seq); err != nil {
					return fail(err)
				}
				seq += rb.Rows()
			}
			resident = nil
		}
		if err := fan.routeFrom(b, 0, n, side.count); err != nil {
			return fail(err)
		}
		side.count += n
	}
	if err := v.close(); err != nil {
		if fan != nil {
			fan.abort()
		}
		return nil, err
	}
	if fan == nil {
		side.b = column.Concat(in.schema, resident, side.count).Compact()
		return side, nil
	}
	parts, err := fan.finish()
	if err != nil {
		return nil, err
	}
	side.spilled, side.parts = true, parts
	return side, nil
}

// releaseResident returns a whole resident side's bytes to the arbiter once
// its rows are no longer the operator's working set. (A partitioned side's
// resident buckets own their bytes, returned as their pairs run.)
func (e *Engine) releaseResident(side *vecGraceSide) {
	if side.b != nil && side.bytes > 0 {
		e.mem.release(side.bytes)
		side.bytes = 0
	}
}

// buckets presents a drained side as level-0 buckets: a partitioned side's
// own, or a whole resident side split in memory, its bytes moving to the
// buckets.
func (e *Engine) buckets(side *vecGraceSide, idx []int) []partSource {
	if side.spilled {
		return side.parts
	}
	parts := splitPart(wholeBatch(side.b), idx, 0)
	side.bytes = 0
	return parts
}

// hashSplit is the one in-memory hash split: it buckets a partition's rows
// into out by bucket(h), h the canonical hash of their key columns,
// preserving order within each bucket. Every bucket keeps the partition's
// batch and sequence keys, so a key group lands whole in one bucket, in
// list order.
func hashSplit(p part, idx []int, out []part, bucket func(h uint64) int) {
	for bk := range out {
		out[bk] = part{b: p.b, seqs: p.seqs}
	}
	if len(p.rows) == 0 {
		return
	}
	hs := make([]uint64, len(p.rows))
	column.HashRows(p.b, p.rows, idx, hs)
	var countBuf [spillFanout]int
	counts := countBuf[:]
	if len(out) > len(counts) {
		counts = make([]int, len(out))
	}
	for k, h := range hs {
		bk := bucket(h)
		hs[k] = uint64(bk)
		counts[bk]++
	}
	for bk := range out {
		if counts[bk] > 0 {
			out[bk].rows = make([]int, 0, counts[bk])
		}
	}
	for k, i := range p.rows {
		ps := &out[hs[k]]
		ps.rows = append(ps.rows, i)
	}
}

// splitPart splits resident rows into the fan-out buckets of a spill level
// (hashSplit), each bucket's bytes priced once over its rows. No disk is
// involved: the buckets are row lists over the same batch.
func splitPart(p part, idx []int, lvl int) []partSource {
	var subs [spillFanout]part
	hashSplit(p, idx, subs[:], func(h uint64) int { return spillBucket(h, lvl) })
	parts := make([]partSource, spillFanout)
	for bk, sub := range subs {
		parts[bk] = partSource{part: sub, count: len(sub.rows), shared: true}
		if len(sub.rows) > 0 {
			parts[bk].bytes = sub.b.WithSel(sub.rows).Bytes(0, len(sub.rows))
		}
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
	fan := e.newFanout(sch, idx, lvl, 0)
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
// batch. A resident partition is already one; a spilled partition decodes
// block-at-a-time onto column planes, its write order being arrival order
// within the bucket, the arbiter grows by its bytes and the bucket is
// removed from its pass. Either way the caller releases the bytes after the
// body ran.
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
// copied out of a loaded partition or a resident bucket at once (detach),
// so what stays resident until the gather is the operator's output, never
// its input.
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
		if heapProbe != nil {
			heapProbe()
		}
		for k, m := range out {
			if !(lp.shared && m.b == l.b) && !(rp.shared && m.b == r.b) {
				out[k] = detach(op.out, m)
			}
		}
		e.mem.release(lp.bytes + rp.bytes)
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
		lparts, rparts := e.buckets(ls, op.lidx), e.buckets(rs, op.ridx)
		// The resident pairs run first, with no encode or decode, and
		// return their bytes before any spilled pair loads.
		var resident, loaded []int
		for b := range lparts {
			if lparts[b].file == nil && rparts[b].file == nil {
				resident = append(resident, b)
			} else {
				loaded = append(loaded, b)
			}
		}
		outs = make([][]emitted, spillFanout)
		for _, phase := range [][]int{resident, loaded} {
			if err = runTasks(e.workers(), len(phase), func(t int) error {
				b := phase[t]
				res, err := e.processGrace(op, lparts[b], rparts[b], 1)
				outs[b] = res
				return err
			}); err != nil {
				break
			}
		}
	case e.parallel() && len(op.lidx) > 0:
		w := e.exchange()
		lb, rb := ls.b.Compact(), rs.b.Compact()
		var lparts, rparts []part
		if op.r == nil && op.contiguous {
			lparts = rangeParts(lb, op.lidx, w)
			rparts = make([]part, len(lparts))
		} else {
			lparts = hashExchange(lb, op.lidx, w)
			rparts = hashExchange(rb, op.ridx, w)
		}
		outs = make([][]emitted, len(lparts))
		err = runTasks(w, len(lparts), func(p int) error {
			res, err := op.body(lparts[p], rparts[p])
			outs[p] = res
			return err
		})
	default:
		// One partition: the body reads the drained batches where they lie,
		// through row lists the route's scratch holds until the gather.
		sc := getScratch()
		defer sc.release()
		outs = make([][]emitted, 1)
		outs[0], err = op.body(sc.whole(0, ls.b), sc.whole(1, rs.b))
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
// copy row by row into one batch. Every stretch that replaces periods is
// copied, so the gather returns the stretches' fragment buffers to their
// pool: ems is spent.
func gather(bs []*column.Batch, out *schema.Schema, ems []emitted) []*column.Batch {
	defer releaseFrags(ems)
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
	// Few runs: the outputs do not interleave. A run that keeps its periods
	// becomes a view over its source batch; runs that replace periods are
	// copied, consecutive ones into one batch.
	run := func(lo int) (hi int, replaced bool) {
		src := ems[segs[lo].m].b
		for hi = lo; hi < len(segs) && ems[segs[hi].m].b == src; hi++ {
			replaced = replaced || ems[segs[hi].m].per != nil
		}
		return hi, replaced
	}
	for lo := 0; lo < len(segs); {
		hi, replaced := run(lo)
		if replaced {
			for hi < len(segs) {
				next, more := run(hi)
				if !more {
					break
				}
				hi = next
			}
			bs = append(bs, copyRows(out, ems, segs[lo:hi], true))
		} else {
			// One segment's rows serve as the selection as they are; the
			// capacity clamp makes the first further append copy instead of
			// writing into the stretch's own slice.
			rows := ems[segs[lo].m].rows[segs[lo].lo:segs[lo].hi:segs[lo].hi]
			for _, sg := range segs[lo+1 : hi] {
				rows = append(rows, ems[sg.m].rows[sg.lo:sg.hi]...)
			}
			bs = append(bs, selView(ems[segs[lo].m].b, rows))
		}
		lo = hi
	}
	return bs
}

// selView presents the given physical rows of a batch: a dense batch
// itself when they are all of its rows in order, else a selection view.
func selView(b *column.Batch, rows []int) *column.Batch {
	if b.Sel == nil && len(rows) == b.N {
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

// detach copies a leaf's output stretch out of the partition batch it
// reads — a loaded partition, or a resident bucket the drain gathered — so
// that batch's planes can be collected. (A stretch over a batch split in
// memory stays as it is: that batch outlives the partition.) A stretch at
// least half the size of the batch it reads — a body-built batch, a
// pass-through, an operator that keeps most of its input — pins no more
// than it is worth and is kept as it is.
func detach(out *schema.Schema, m emitted) emitted {
	if len(m.rows) == 0 || len(m.rows)*2 >= m.b.N {
		return m
	}
	seqs := make([]int, len(m.rows))
	for k := range seqs {
		seqs[k] = m.seq(k)
	}
	ems := []emitted{m}
	b := copyRows(out, ems, []seg{{0, 0, len(m.rows)}}, m.per != nil)
	releaseFrags(ems)
	return emitted{part: part{b: b, rows: identityIdx(b.N), seqs: seqs}}
}

// mergeBySeq is the k-way merge behind every gather: stream p's items are
// non-decreasing in seq, and the merge takes the smallest (seq, stream
// index) head off the one merge heap, emitting the items as ranges [lo, hi)
// of their stream; once a single stream is left its whole remainder is one
// range. Items sharing a seq — one probe tuple's join matches, one row's
// fragments — always live in a single stream, so they keep their
// stream-local emission order.
//
// Each stream's head key is read once per item and kept for the heap's
// comparisons. Up to mergeStack streams, the heads and the heap live on the
// stack: a gather of one partition's output, as the streaming group
// operators make one per slice, then allocates nothing to merge.
func mergeBySeq(streams int, size func(p int) int, seq func(p, i int) int, emit func(p, lo, hi int)) {
	var space mergeSpace
	pos, head, buf := space.slices(streams) // head[p] = seq(p, pos[p]), read once per item
	m := newMergeHeap(buf, func(a, b int) int { return cmp.Compare(head[a], head[b]) })
	for p := 0; p < streams; p++ {
		if size(p) > 0 {
			head[p] = seq(p, 0)
			m.push(p)
		}
	}
	for m.len() > 1 {
		p := m.top()
		emit(p, pos[p], pos[p]+1)
		pos[p]++
		more := pos[p] < size(p)
		if more {
			head[p] = seq(p, pos[p])
		}
		m.next(more)
	}
	if m.len() == 1 {
		p := m.top()
		emit(p, pos[p], size(p))
	}
}

// mergeStack is how many streams a merge keeps on the stack.
const mergeStack = 16

// mergeSpace is a merge's stack storage: for each stream a head position
// and a head key, and the heap.
type mergeSpace [3 * mergeStack]int

// slices returns zeroed positions, keys and heap space for n streams: the
// stack array, or one fresh slice past mergeStack.
func (s *mergeSpace) slices(n int) (pos, head, heap []int) {
	buf := s[:]
	if n > mergeStack {
		buf = make([]int, 3*n)
	}
	return buf[:n:n], buf[n : 2*n : 2*n], buf[2*n : 3*n]
}

// mergeHeap is the package's one k-way merge: a binary min-heap of stream
// indices ordered by their heads, ties going to the lower stream index. Its
// callers order heads by key, then sequence key, so with the index last it
// is the one stable rule every sort, merge and gather shares. The caller
// keeps the heads: it reads the top stream's, moves it, and calls next. The
// heap lives in the slice it is given, whose capacity bounds the streams —
// a stack array makes a merge that allocates nothing. (It is hand-rolled:
// it runs once per output row of every exchange, where the interface
// dispatch of the standard library's heap is measurable.)
type mergeHeap struct {
	h   []int
	cmp func(a, b int) int // the three-way order of streams a's and b's heads
}

// newMergeHeap starts an empty merge over buf's capacity.
func newMergeHeap(buf []int, cmp func(a, b int) int) mergeHeap {
	return mergeHeap{h: buf[:0], cmp: cmp}
}

func (m *mergeHeap) len() int { return len(m.h) }

// top is the stream whose head comes first.
func (m *mergeHeap) top() int { return m.h[0] }

func (m *mergeHeap) less(a, b int) bool {
	if c := m.cmp(a, b); c != 0 {
		return c < 0
	}
	return a < b
}

// push adds stream p, whose head is live.
func (m *mergeHeap) push(p int) {
	i := len(m.h)
	m.h = m.h[:i+1]
	m.h[i] = p
	for i > 0 {
		up := (i - 1) / 2
		if !m.less(m.h[i], m.h[up]) {
			return
		}
		m.h[i], m.h[up] = m.h[up], m.h[i]
		i = up
	}
}

// next restores the order after the top stream's head moved; more=false
// reports that the stream is exhausted, and it leaves the heap.
func (m *mergeHeap) next(more bool) {
	if !more {
		last := len(m.h) - 1
		m.h[0] = m.h[last]
		m.h = m.h[:last]
	}
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(m.h) {
			return
		}
		if c+1 < len(m.h) && m.less(m.h[c+1], m.h[c]) {
			c++
		}
		if !m.less(m.h[c], m.h[i]) {
			return
		}
		m.h[i], m.h[c] = m.h[c], m.h[i]
		i = c
	}
}

// batchSource wraps a resident batch as an ordinary pipeline stage — the
// build side a budgeted join drained and found to fit, or one partition's.
func batchSource(b *column.Batch, sch *schema.Schema) *source {
	return vecSource(&rangeBatchIter{b: b, hi: b.Rows()}, sch)
}

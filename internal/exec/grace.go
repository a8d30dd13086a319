// Memory-bounded execution (Config.MemoryBudget > 0): a per-run byte
// arbiter plus grace-hash recursive partitioning that lets every blocking
// hash operator scale past memory, exactly as the paper presents its
// partitioning algorithms.
//
// The shape mirrors the parallel exchange of parallel.go, traded from
// space-parallelism to time: an operator whose materialized state would
// exceed its budget share routes its input rows — tagged with their
// original list positions — into hash partitions on disk (package spill),
// so every key group lands wholly in one partition in list order. The
// partitions are then processed one at a time (or workers at a time when
// composed with Config.Parallelism, each worker bounded by budget/W) with
// the same per-partition algorithms the parallel exchange uses, and the
// tagged outputs merge back through the same deterministic sequence-key
// gather. A partition that still exceeds the share re-partitions
// recursively on fresh bits of the canonical key hash; the recursion is
// depth-capped, so a pathological single-key skew degrades to in-memory
// processing rather than looping.
//
// Because the gather is the parallel exchange's — and that gather is
// proven bit-identical to the sequential engine by the differential suite —
// a budgeted plan produces the reference evaluator's exact result list at
// every budget, spilling or not.
//
// What the budget bounds is the working set of the blocking operators:
// hash tables, materialized build sides, value-group partitions, sort
// runs. Streams between operators and the query's result are outputs, not
// operator state, and are exempt — the standard work_mem contract. Two
// shapes keep unbounded state by construction and are documented rather
// than bounded: a GROUP-BY-less temporal aggregate (one global group whose
// constant intervals need every row) and the fixed floor of the spill
// writers' buffers (fanout × 16KB) under budgets smaller than that.
package exec

import (
	"sort"
	"sync/atomic"

	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/spill"
)

// sortRowsByOrig stable-sorts transformed rows back into original list
// order; fragments of one row keep their in-place sequence.
func sortRowsByOrig(rows []row) {
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].orig < rows[j].orig })
}

// spillFanout is the grace-hash fan-out: each partitioning pass splits a
// too-big input into this many hash partitions.
const spillFanout = 8

// maxSpillLevel caps the recursive re-partitioning depth. Each level
// consumes 3 fresh bits of the 64-bit canonical key hash, so the cap is a
// skew guard, not a capacity limit: beyond it a partition processes in
// memory regardless of size (all rows share a key that no hash can split).
const maxSpillLevel = 6

// minShare floors the per-operator budget share so degenerate budgets
// (budget ≪ fanout × writer buffers) still terminate promptly.
const minShare = 4 << 10

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

// partSource is one grace partition's rows: resident or on disk. bytes and
// count drive the recursion decision without touching the data.
type partSource struct {
	rows  []prow
	file  *spill.File
	bytes int64
	count int
}

// graceSide is a fully drained operator input: resident when it fit its
// share, otherwise fanned out into level-0 hash partitions on disk.
type graceSide struct {
	rows    []prow
	bytes   int64
	count   int
	spilled bool
	parts   []partSource
}

// drainGrace consumes a source into memory until share is exceeded, then
// switches to spilling: the buffered rows flush into fan-out partitions by
// the level-0 hash of idx, and the rest of the stream routes directly.
// Rows are tagged with their arrival positions; partitioning preserves
// arrival order within each partition, so key groups land whole and in
// list order — the invariant every per-partition algorithm relies on.
func (e *Engine) drainGrace(in *source, idx []int, share int64) (*graceSide, error) {
	side := &graceSide{}
	var writers []*spill.Writer
	abort := func() {
		for _, w := range writers {
			if w != nil {
				w.Abort()
			}
		}
	}
	write := func(pr prow) error {
		return writers[spillBucket(pr.t.HashOn(idx), 0)].Append(pr.orig, pr.t)
	}
	for {
		t, err := in.it.next()
		if err != nil {
			abort()
			in.it.close()
			return nil, err
		}
		if t == nil {
			break
		}
		pr := prow{orig: side.count, t: t}
		side.count++
		side.bytes += spill.TupleMemSize(t)
		if !side.spilled {
			side.rows = append(side.rows, pr)
			e.mem.grow(spill.TupleMemSize(t))
			if side.bytes > share {
				// Switch to spilling: everything buffered so far fans out,
				// and the resident bytes return to the arbiter.
				side.spilled = true
				writers = make([]*spill.Writer, spillFanout)
				for b := range writers {
					if writers[b], err = e.spillMgr.Create(); err != nil {
						abort()
						in.it.close()
						return nil, err
					}
				}
				for _, br := range side.rows {
					if err := write(br); err != nil {
						abort()
						in.it.close()
						return nil, err
					}
				}
				e.mem.release(side.bytes)
				side.rows = nil
			}
			continue
		}
		if err := write(pr); err != nil {
			abort()
			in.it.close()
			return nil, err
		}
	}
	if err := in.it.close(); err != nil {
		abort()
		return nil, err
	}
	if !side.spilled {
		return side, nil
	}
	side.parts = make([]partSource, spillFanout)
	for b, w := range writers {
		f, err := w.Finish()
		if err != nil {
			abort()
			return nil, err
		}
		writers[b] = nil
		if f.Count() == 0 {
			f.Remove()
			continue
		}
		side.parts[b] = partSource{file: f, bytes: f.MemBytes(), count: f.Count()}
	}
	return side, nil
}

// releaseResident returns a side's resident bytes to the arbiter once its
// rows are no longer the operator's working set.
func (e *Engine) releaseResident(side *graceSide) {
	if !side.spilled {
		e.mem.release(side.bytes)
	}
}

// splitResident partitions resident rows into fan-out buckets at the given
// level, preserving order. No disk is involved: the rows are already
// resident and the buckets alias them.
func splitResident(rows []prow, idx []int, lvl int) []partSource {
	parts := make([]partSource, spillFanout)
	for _, pr := range rows {
		b := spillBucket(pr.t.HashOn(idx), lvl)
		parts[b].rows = append(parts[b].rows, pr)
		parts[b].bytes += spill.TupleMemSize(pr.t)
		parts[b].count++
	}
	return parts
}

// repartition splits one partition at the given level: resident rows split
// in memory, an on-disk partition streams through fresh writers without
// materializing, and the source file is removed as soon as it is consumed.
func (e *Engine) repartition(ps partSource, idx []int, lvl int) ([]partSource, error) {
	if ps.file == nil {
		return splitResident(ps.rows, idx, lvl), nil
	}
	writers := make([]*spill.Writer, spillFanout)
	abort := func() {
		for _, w := range writers {
			if w != nil {
				w.Abort()
			}
		}
	}
	var err error
	for b := range writers {
		if writers[b], err = e.spillMgr.Create(); err != nil {
			abort()
			return nil, err
		}
	}
	r, err := ps.file.Open()
	if err != nil {
		abort()
		return nil, err
	}
	for {
		seq, t, ok, err := r.Next()
		if err != nil {
			r.Close()
			abort()
			return nil, err
		}
		if !ok {
			break
		}
		if err := writers[spillBucket(t.HashOn(idx), lvl)].Append(seq, t); err != nil {
			r.Close()
			abort()
			return nil, err
		}
	}
	if err := r.Close(); err != nil {
		abort()
		return nil, err
	}
	ps.file.Remove()
	parts := make([]partSource, spillFanout)
	for b, w := range writers {
		f, err := w.Finish()
		if err != nil {
			abort()
			return nil, err
		}
		writers[b] = nil
		if f.Count() == 0 {
			f.Remove()
			continue
		}
		parts[b] = partSource{file: f, bytes: f.MemBytes(), count: f.Count()}
	}
	return parts, nil
}

// loadPart materializes one partition, growing the arbiter by its bytes
// (the caller releases after processing) and removing the backing file.
func (e *Engine) loadPart(ps partSource) ([]prow, error) {
	if ps.file == nil {
		return ps.rows, nil
	}
	r, err := ps.file.Open()
	if err != nil {
		return nil, err
	}
	rows := make([]prow, 0, ps.count)
	for {
		seq, t, ok, err := r.Next()
		if err != nil {
			r.Close()
			return nil, err
		}
		if !ok {
			break
		}
		rows = append(rows, prow{orig: seq, t: t})
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	ps.file.Remove()
	e.mem.grow(ps.bytes)
	return rows, nil
}

// graceEmit1 and graceEmit2 are the per-partition operator bodies: pure
// in-memory functions over sequence-tagged rows whose outputs are
// non-decreasing in sequence key — the contract mergeTagged gathers by.
type (
	graceEmit1 func(part []prow) ([]tagged, error)
	graceEmit2 func(lp, rp []prow) ([]tagged, error)
)

// processGrace1 runs emit over one partition, re-partitioning while the
// partition exceeds the share and can still split.
func (e *Engine) processGrace1(ps partSource, idx []int, lvl int, emit graceEmit1) ([]tagged, error) {
	if ps.count == 0 {
		return nil, nil
	}
	if ps.bytes <= e.opShare() || lvl > maxSpillLevel || ps.count <= 1 {
		rows, err := e.loadPart(ps)
		if err != nil {
			return nil, err
		}
		out, err := emit(rows)
		if ps.file != nil {
			e.mem.release(ps.bytes)
		}
		return out, err
	}
	subs, err := e.repartition(ps, idx, lvl)
	if err != nil {
		return nil, err
	}
	outs := make([][]tagged, spillFanout)
	for b := range subs {
		if outs[b], err = e.processGrace1(subs[b], idx, lvl+1, emit); err != nil {
			return nil, err
		}
	}
	return mergeTaggedSorted(outs), nil
}

// processGrace2 is processGrace1 for a two-sided operator: the pair of
// partitions holding one bucket's left and right rows processes together,
// splitting together while their combined size exceeds the share. Left and
// right hash on their own key columns (lidx/ridx), which agree on equal
// keys by canonical hashing — the same pairing the parallel exchange uses.
func (e *Engine) processGrace2(lp, rp partSource, lidx, ridx []int, lvl int, emit graceEmit2) ([]tagged, error) {
	if lp.count == 0 && rp.count == 0 {
		return nil, nil
	}
	if lp.bytes+rp.bytes <= e.opShare() || lvl > maxSpillLevel || lp.count+rp.count <= 1 {
		lrows, err := e.loadPart(lp)
		if err != nil {
			return nil, err
		}
		rrows, err := e.loadPart(rp)
		if err != nil {
			return nil, err
		}
		out, err := emit(lrows, rrows)
		if lp.file != nil {
			e.mem.release(lp.bytes)
		}
		if rp.file != nil {
			e.mem.release(rp.bytes)
		}
		return out, err
	}
	lsubs, err := e.repartition(lp, lidx, lvl)
	if err != nil {
		return nil, err
	}
	rsubs, err := e.repartition(rp, ridx, lvl)
	if err != nil {
		return nil, err
	}
	outs := make([][]tagged, spillFanout)
	for b := range lsubs {
		if outs[b], err = e.processGrace2(lsubs[b], rsubs[b], lidx, ridx, lvl+1, emit); err != nil {
			return nil, err
		}
	}
	return mergeTaggedSorted(outs), nil
}

// mergeTaggedSorted is mergeTagged keeping the gather keys: the recursive
// grace merge needs its intermediate results to stay tagged, because a
// bucket's merged output becomes one input stream of the level above.
// Ties on seq break by partition index, and equal-seq tuples never span
// partitions; the heap loop itself is shared (mergeTaggedInto).
func mergeTaggedSorted(parts [][]tagged) []tagged {
	out := make([]tagged, 0, taggedTotal(parts))
	mergeTaggedInto(parts, func(tg tagged) { out = append(out, tg) })
	return out
}

// untag strips the gather keys off a merged output.
func untag(ts []tagged) []relation.Tuple {
	out := make([]relation.Tuple, len(ts))
	for i, t := range ts {
		out[i] = t.t
	}
	return out
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

// graceRun1 drives a one-sided grace operator end to end: drain (spilling
// past the share), process partitions (concurrently under Parallelism),
// gather by sequence key.
func (e *Engine) graceRun1(in *source, idx []int, emit graceEmit1) ([]relation.Tuple, error) {
	side, err := e.drainGrace(in, idx, e.opShare())
	if err != nil {
		return nil, err
	}
	if !side.spilled {
		out, err := emit(side.rows)
		e.releaseResident(side)
		if err != nil {
			return nil, err
		}
		return untag(out), nil
	}
	e.graceNoteSpill()
	outs := make([][]tagged, spillFanout)
	if err := runTasks(e.workers(), spillFanout, func(b int) error {
		res, err := e.processGrace1(side.parts[b], idx, 1, emit)
		outs[b] = res
		return err
	}); err != nil {
		return nil, err
	}
	return untag(mergeTaggedSorted(outs)), nil
}

// graceRun2 drives a two-sided grace operator: both sides drain against
// half the share; if either spilled, both sides partition (a resident side
// splits in memory) and the bucket pairs process together.
func (e *Engine) graceRun2(l, r *source, lidx, ridx []int, emit func(ls, rs *graceSide) graceEmit2) ([]relation.Tuple, error) {
	ls, err := e.drainGrace(l, lidx, e.opShare()/2)
	if err != nil {
		r.it.close()
		return nil, err
	}
	rs, err := e.drainGrace(r, ridx, e.opShare()/2)
	if err != nil {
		return nil, err
	}
	return e.graceRun2From(ls, rs, lidx, ridx, emit)
}

// graceRun2From is graceRun2 after the drains, for callers that drain the
// sides themselves (the hybrid join drains its build side first and only
// drains the probe side when the build overflowed).
func (e *Engine) graceRun2From(ls, rs *graceSide, lidx, ridx []int, emit func(ls, rs *graceSide) graceEmit2) ([]relation.Tuple, error) {
	em := emit(ls, rs)
	if !ls.spilled && !rs.spilled {
		out, err := em(ls.rows, rs.rows)
		e.releaseResident(ls)
		e.releaseResident(rs)
		if err != nil {
			return nil, err
		}
		return untag(out), nil
	}
	e.graceNoteSpill()
	lparts, rparts := ls.parts, rs.parts
	if !ls.spilled {
		lparts = splitResident(ls.rows, lidx, 0)
	}
	if !rs.spilled {
		rparts = splitResident(rs.rows, ridx, 0)
	}
	outs := make([][]tagged, spillFanout)
	if err := runTasks(e.workers(), spillFanout, func(b int) error {
		res, err := e.processGrace2(lparts[b], rparts[b], lidx, ridx, 1, em)
		outs[b] = res
		return err
	}); err != nil {
		return nil, err
	}
	e.releaseResident(ls)
	e.releaseResident(rs)
	return untag(mergeTaggedSorted(outs)), nil
}

// ---- shared per-partition operator bodies -------------------------------
//
// These are the in-memory partition algorithms shared by the parallel
// exchange (parallel.go) and the grace spill paths: each takes one
// partition's sequence-tagged rows and returns outputs non-decreasing in
// sequence key.

// budgetedPartition is the core of \ and ∪: fund rows build per-key
// multiplicity budgets, scan rows stream against them with budget hits
// cancelling, and survivors carry their scan position plus offset.
func budgetedPartition(fund, scan []prow, idx []int, offset int) []tagged {
	groups := newHashGroups(idx, len(fund))
	var budget []int
	for _, pr := range fund {
		gid, fresh := groups.groupOf(pr.t)
		if fresh {
			budget = append(budget, 0)
		}
		budget[gid]++
	}
	var res []tagged
	for _, pr := range scan {
		if gid := groups.lookup(pr.t, idx); gid >= 0 && budget[gid] > 0 {
			budget[gid]--
			continue
		}
		res = append(res, tagged{seq: offset + pr.orig, t: pr.t})
	}
	return res
}

// passThrough emits a partition's rows unchanged under their own sequence
// keys — the left side of ∪ and ∪ᵀ, which passes through whole.
func passThrough(part []prow) []tagged {
	res := make([]tagged, len(part))
	for i, pr := range part {
		res[i] = tagged{seq: pr.orig, t: pr.t}
	}
	return res
}

// groupAggPartition runs a grouping operator over one partition: one output
// batch per group, tagged with the group's first-occurrence position.
func groupAggPartition(part []prow, gidx []int, emit func([]relation.Tuple) ([]relation.Tuple, error)) ([]tagged, error) {
	groups := newHashGroups(gidx, len(part))
	var first []int
	var tuples [][]relation.Tuple
	for _, pr := range part {
		gid, fresh := groups.groupOf(pr.t)
		if fresh {
			first = append(first, pr.orig)
			tuples = append(tuples, nil)
		}
		tuples[gid] = append(tuples[gid], pr.t)
	}
	var res []tagged
	for g := range tuples {
		out, err := emit(tuples[g])
		if err != nil {
			return nil, err
		}
		for _, t := range out {
			res = append(res, tagged{seq: first[g], t: t})
		}
	}
	return res, nil
}

// valueGroupPartition runs a value-equivalence group transform (rdupᵀ's
// head/subtract elimination, coalᵀ's adjacency merge) over one partition,
// re-interleaving the fragments into original list order.
func valueGroupPartition(part []prow, vidx []int, t1, t2 int, transform func([]row, int, int) []row) []tagged {
	groups := newHashGroups(vidx, len(part))
	var members [][]row
	for _, pr := range part {
		gid, fresh := groups.groupOf(pr.t)
		if fresh {
			members = append(members, nil)
		}
		members[gid] = append(members[gid], row{orig: pr.orig, t: pr.t, p: pr.t.PeriodAt(t1, t2)})
	}
	var all []row
	for g := range members {
		all = append(all, transform(members[g], t1, t2)...)
	}
	sortRowsByOrig(all)
	res := make([]tagged, len(all))
	for i, rw := range all {
		res[i] = tagged{seq: rw.orig, t: rw.t}
	}
	return res
}

// tdiffPartition runs \ᵀ over one partition pair: per value group, the
// elementary-interval subtraction, surviving fragments in left list order.
func tdiffPartition(lp, rp []prow, vidx []int, t1, t2 int) []tagged {
	leftMembers, rightMembers, _ := valueMembership(lp, rp, vidx)
	frag := make([][]relation.Tuple, len(lp))
	for gid, lIdx := range leftMembers {
		if len(lIdx) == 0 {
			continue
		}
		lps := memberPeriods(lp, lIdx, t1, t2)
		rps := memberPeriods(rp, rightMembers[gid], t1, t2)
		for x, fs := range tdiffGroupFragments(lps, rps) {
			k := lIdx[x]
			for _, p := range fs {
				frag[k] = append(frag[k], lp[k].t.WithPeriodAt(t1, t2, p))
			}
		}
	}
	var res []tagged
	for k, pr := range lp {
		for _, t := range frag[k] {
			res = append(res, tagged{seq: pr.orig, t: t})
		}
	}
	return res
}

// tunionPartition computes ∪ᵀ's right-excess contribution for one
// partition pair: per value group in first-right-occurrence order, the
// excess-layer periods, tagged with the group's first right position plus
// offset (so they gather behind a whole left list when offset is the left
// cardinality).
func tunionPartition(lp, rp []prow, vidx []int, t1, t2, offset int) []tagged {
	leftMembers, rightMembers, rOrder := valueMembership(lp, rp, vidx)
	var res []tagged
	for _, gid := range rOrder {
		lps := memberPeriods(lp, leftMembers[gid], t1, t2)
		rps := memberPeriods(rp, rightMembers[gid], t1, t2)
		rep := rp[rightMembers[gid][0]]
		for _, p := range tunionExtraPeriods(lps, rps) {
			res = append(res, tagged{seq: offset + rep.orig, t: rep.t.WithPeriodAt(t1, t2, p)})
		}
	}
	return res
}

// ---- budgeted operator sources ------------------------------------------

// graceGroupSource compiles a one-sided keyed blocking operator (rdup, the
// temporal value-group family, aggregation) in memory-bounded mode.
func (e *Engine) graceGroupSource(in *source, idx []int, outSchema *schema.Schema, order relation.OrderSpec, emit graceEmit1) *source {
	return lazySource(outSchema, order, func() ([]relation.Tuple, error) {
		return e.graceRun1(in, idx, emit)
	})
}

// graceDiffSource compiles \ in memory-bounded mode: both sides partition
// on the full tuple, the right side funds per-key budgets, left survivors
// gather in left list order.
func (e *Engine) graceDiffSource(l, r *source, outSchema *schema.Schema, order relation.OrderSpec) *source {
	idx := identityIdx(l.schema.Len())
	return lazySource(outSchema, order, func() ([]relation.Tuple, error) {
		return e.graceRun2(l, r, idx, idx, func(_, _ *graceSide) graceEmit2 {
			return func(lp, rp []prow) ([]tagged, error) {
				return budgetedPartition(rp, lp, idx, 0), nil
			}
		})
	})
}

// graceUnionSource compiles the max-multiplicity ∪ in memory-bounded mode:
// the left list passes through whole (its rows gather back into list order
// by sequence key), right tuples exceeding the left multiplicities follow.
func (e *Engine) graceUnionSource(l, r *source, outSchema *schema.Schema) *source {
	idx := identityIdx(l.schema.Len())
	return lazySource(outSchema, nil, func() ([]relation.Tuple, error) {
		return e.graceRun2(l, r, idx, idx, func(ls, _ *graceSide) graceEmit2 {
			offset := ls.count
			return func(lp, rp []prow) ([]tagged, error) {
				return append(passThrough(lp), budgetedPartition(lp, rp, idx, offset)...), nil
			}
		})
	})
}

// graceTDiffSource compiles \ᵀ in memory-bounded mode.
func (e *Engine) graceTDiffSource(l, r *source, order relation.OrderSpec) *source {
	vidx := valueIdx(l.schema)
	t1, t2 := l.schema.TimeIndices()
	return lazySource(l.schema, order, func() ([]relation.Tuple, error) {
		return e.graceRun2(l, r, vidx, vidx, func(_, _ *graceSide) graceEmit2 {
			return func(lp, rp []prow) ([]tagged, error) {
				return tdiffPartition(lp, rp, vidx, t1, t2), nil
			}
		})
	})
}

// graceTUnionSource compiles ∪ᵀ in memory-bounded mode.
func (e *Engine) graceTUnionSource(l, r *source) *source {
	vidx := valueIdx(l.schema)
	t1, t2 := l.schema.TimeIndices()
	return lazySource(l.schema, nil, func() ([]relation.Tuple, error) {
		return e.graceRun2(l, r, vidx, vidx, func(ls, _ *graceSide) graceEmit2 {
			offset := ls.count
			return func(lp, rp []prow) ([]tagged, error) {
				return append(passThrough(lp), tunionPartition(lp, rp, vidx, t1, t2, offset)...), nil
			}
		})
	})
}

// residentSource wraps a drained-but-resident grace side as an ordinary
// build-side source, the rows in their arrival order.
func residentSource(side *graceSide, sch *schema.Schema) *source {
	brows := make([]relation.Tuple, len(side.rows))
	for i, pr := range side.rows {
		brows[i] = pr.t
	}
	rel := relation.FromTuplesTrusted(sch, brows)
	return &source{it: &sliceIter{ts: rel.Tuples(), owned: true}, schema: sch}
}

// graceJoinSource compiles an equi-keyed × / ×ᵀ in memory-bounded mode as a
// hybrid hash join. The build (right) side drains against half the operator
// share first; while it stays resident the probe side is a stream between
// operators — not operator state — so it is never drained, and the ordinary
// batch hash join runs against the resident build rows. Only when the build
// side itself overflows do both sides grace-partition on the join keys, each
// bucket building on its right rows and probing its left rows in sequence
// order, the pairs gathering into the reference's left-major sequence.
func (e *Engine) graceJoinSource(l, r *source, j *pairJoiner, order relation.OrderSpec) *source {
	e.stats.VectorOps++
	compute := func() ([]*batch, error) {
		rs, err := e.drainGrace(r, j.ridx, e.opShare()/2)
		if err != nil {
			l.it.close()
			return nil, err
		}
		if !rs.spilled {
			defer e.releaseResident(rs)
			v := &vecJoinIter{
				e: e, left: l.vecInput(), right: residentSource(rs, r.schema),
				out: j.out, lw: j.lw, rw: j.rw,
				lidx: j.lidx, ridx: j.ridx, residual: j.residual,
				temporal: j.temporal, lt1: j.lt1, lt2: j.lt2,
			}
			var out []*batch
			for {
				b, err := v.nextBatch()
				if err != nil {
					v.close()
					return nil, err
				}
				if b == nil {
					break
				}
				out = append(out, b)
			}
			if err := v.close(); err != nil {
				return nil, err
			}
			return out, nil
		}
		ts, err := e.graceJoinSpilled(l, rs, j)
		if err != nil {
			return nil, err
		}
		out := tupleBatches(j.out, ts)
		e.stats.VectorBatches += len(out)
		return out, nil
	}
	return vecSource(&lazyBatchesIter{compute: compute}, j.out, order)
}

// graceJoinSpilled is the hybrid's overflow path: with the build side
// already partitioned to disk the probe side drains against its half-share
// too, and the two-sided grace recursion pairs the buckets.
func (e *Engine) graceJoinSpilled(l *source, rs *graceSide, j *pairJoiner) ([]relation.Tuple, error) {
	ls, err := e.drainGrace(l, j.lidx, e.opShare()/2)
	if err != nil {
		return nil, err
	}
	return e.graceRun2From(ls, rs, j.lidx, j.ridx, func(_, _ *graceSide) graceEmit2 {
		return j.joinPartition
	})
}

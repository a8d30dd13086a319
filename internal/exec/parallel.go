// Morsel-driven parallel execution (Config.Parallelism > 1): a bounded
// worker pool plus exchange operators that partition an operator's
// materialized inputs, run the per-partition work concurrently, and gather
// the partition outputs through a deterministic merge — so every parallel
// plan produces the bit-identical result list of the sequential engine, and
// therefore of the reference evaluator.
//
// Two exchange shapes exist, mirroring the physical decision procedure of
// package physical:
//
//   - hash exchange: tuples route to partitions by the canonical hash of the
//     operator's key columns (equi-join keys, full tuples for rdup/\/∪, the
//     value-equivalence or grouping columns for the temporal family), so
//     every key group lands wholly in one partition in list order and the
//     sequential per-group algorithms apply unchanged per partition. Each
//     emitted tuple carries a deterministic sequence key — its probe-side
//     list position, or its group's first-occurrence position — and the
//     gather is a k-way merge by (sequence, partition index).
//
//   - range exchange: when the input's delivered order proves the operator's
//     groups contiguous (a covering prefix of the delivered order, via
//     physical.GroupsContiguous), the input splits into contiguous segments
//     aligned with group boundaries; each worker's output is then
//     independently ordered and the gather is concatenation in segment
//     order.
//
// Sorting fans out run generation — the fixed-size index runs of the batch
// sort (vecSortSource) are sorted concurrently as morsels — and gathers
// through a k-way merge whose run-index tie-break is exactly the global
// stable sort.
//
// Scheduling is morsel-driven: workers claim task indices (input chunks,
// partitions, runs, segments) from a shared counter. The scan and
// run-generation phases are morsel-granular, so a slow chunk never idles
// the pool; the per-partition operator phase is one task per partition, so
// a heavily skewed key distribution serializes on its hot partition — the
// price of keeping each key group whole, which the deterministic gather
// depends on. The pool is bounded per exchange; pull-based evaluation
// materializes one operator at a time, so a plan's exchanges run their
// pools in sequence, not stacked.
package exec

import (
	"sync"
	"sync/atomic"

	"tqp/internal/expr"
	"tqp/internal/period"
	"tqp/internal/physical"
	"tqp/internal/relation"
	"tqp/internal/schema"
)

// morselSize is the chunk granularity of parallel input scans.
const morselSize = 4096

// parallel reports that the engine compiles partitioned operators.
func (e *Engine) parallel() bool { return e.opts.Parallelism > 1 }

// exchange records one parallel operator compilation in the engine's stats
// and returns the partition count (the worker fan-out width).
func (e *Engine) exchange() int {
	p := e.opts.Parallelism
	e.stats.ParallelOps++
	e.stats.Partitions += p
	return p
}

// runTasks runs fn(0..tasks-1) on up to workers goroutines that claim task
// indices from a shared counter. After any task fails, workers stop
// claiming new tasks (in-flight ones finish), and the lowest-index error
// among the executed tasks is returned — the whole exchange is being
// abandoned, so which of several failing tasks reports is immaterial.
func runTasks(workers, tasks int, fn func(task int) error) error {
	if tasks == 0 {
		return nil
	}
	if workers > tasks {
		workers = tasks
	}
	if workers <= 1 {
		for i := 0; i < tasks; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, tasks)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= tasks {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// prow is a tuple tagged with its global list position — the currency of
// the hash exchange. Partitions preserve relative order, and the positions
// drive the deterministic gather.
type prow struct {
	orig int
	t    relation.Tuple
}

// hashPartition routes rows into p partitions by the canonical hash of the
// idx columns, preserving relative list order within each partition, so any
// set of tuples equal on idx lands wholly in one partition in list order.
// The exchange is a two-pass morsel-parallel scatter: workers first hash
// their chunks into a partition-id array with per-chunk counts, then —
// after exact-size partition buffers are carved from the counts — write
// their chunks into disjoint target ranges. No append growth, no
// contention, and chunk-major offsets keep the partition order equal to
// the sequential scan's. Both scan closures are infallible, so the
// runTasks errors are structurally nil and intentionally dropped.
func hashPartition(workers int, rows []relation.Tuple, idx []int, p int) [][]prow {
	n := len(rows)
	chunks := chunkRanges(n, (n+morselSize-1)/morselSize)
	pids := make([]uint32, n)
	counts := make([][]int, len(chunks))
	runTasks(workers, len(chunks), func(c int) error {
		cnt := make([]int, p)
		for i := chunks[c][0]; i < chunks[c][1]; i++ {
			b := uint32(rows[i].HashOn(idx) % uint64(p))
			pids[i] = b
			cnt[b]++
		}
		counts[c] = cnt
		return nil
	})
	// offs[c][b]: where chunk c's partition-b rows start within out[b].
	offs := make([][]int, len(chunks))
	total := make([]int, p)
	for c := range chunks {
		offs[c] = make([]int, p)
		for b := 0; b < p; b++ {
			offs[c][b] = total[b]
			total[b] += counts[c][b]
		}
	}
	out := make([][]prow, p)
	for b := 0; b < p; b++ {
		out[b] = make([]prow, total[b])
	}
	runTasks(workers, len(chunks), func(c int) error {
		pos := offs[c]
		for i := chunks[c][0]; i < chunks[c][1]; i++ {
			b := pids[i]
			out[b][pos[b]] = prow{orig: i, t: rows[i]}
			pos[b]++
		}
		return nil
	})
	return out
}

// chunkRanges splits n positions into at most p consecutive ranges — the
// positional exchange of the keyless and broadcast paths.
func chunkRanges(n, p int) [][2]int {
	if p < 1 {
		p = 1
	}
	target := (n + p - 1) / p
	var out [][2]int
	for lo := 0; lo < n; lo += target {
		hi := lo + target
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// segmentRows splits rows into at most p contiguous segments whose
// boundaries never split a run of rows equal on idx — the range exchange:
// with the delivered order proving groups contiguous, each segment holds
// whole groups and the segment outputs concatenate in order.
func segmentRows(rows []relation.Tuple, idx []int, p int) [][2]int {
	var segs [][2]int
	n := len(rows)
	target := (n + p - 1) / p
	for lo := 0; lo < n; {
		hi := lo + target
		if hi > n {
			hi = n
		}
		for hi < n && rows[hi].EqualOn(idx, rows[hi-1]) {
			hi++
		}
		segs = append(segs, [2]int{lo, hi})
		lo = hi
	}
	return segs
}

// runSegmented applies a per-group emitter over contiguous whole-group
// segments concurrently and concatenates the segment outputs in segment
// order — which is the sequential group-at-a-time output exactly, because
// every group is whole within its segment.
func runSegmented(workers int, rows []relation.Tuple, idx []int, emit func([]relation.Tuple) ([]relation.Tuple, error)) ([]relation.Tuple, error) {
	segs := segmentRows(rows, idx, workers)
	outs := make([][]relation.Tuple, len(segs))
	if err := runTasks(workers, len(segs), func(s int) error {
		lo, hi := segs[s][0], segs[s][1]
		var res []relation.Tuple
		for glo := lo; glo < hi; {
			ghi := glo + 1
			for ghi < hi && rows[ghi].EqualOn(idx, rows[glo]) {
				ghi++
			}
			out, err := emit(rows[glo:ghi])
			if err != nil {
				return err
			}
			res = append(res, out...)
			glo = ghi
		}
		outs[s] = res
		return nil
	}); err != nil {
		return nil, err
	}
	var out []relation.Tuple
	for _, o := range outs {
		out = append(out, o...)
	}
	return out, nil
}

// tagged is one parallel output tuple with its deterministic gather key.
type tagged struct {
	seq int
	t   relation.Tuple
}

// mergeTagged is the deterministic ordered gather: each partition's stream
// is non-decreasing in seq, and the k-way merge pops the smallest
// (seq, partition index) head from a binary min-heap — O(N·log W), keeping
// the single-threaded gather off the exchange's critical path. Tuples
// sharing a seq — one probe tuple's join matches, one group's fragments —
// always live in a single partition, so they stay in their partition-local
// emission order and the merged list is the sequential operator's exact
// output.
func mergeTagged(parts [][]tagged) []relation.Tuple {
	out := make([]relation.Tuple, 0, taggedTotal(parts))
	mergeTaggedInto(parts, func(tg tagged) { out = append(out, tg.t) })
	return out
}

func taggedTotal(parts [][]tagged) int {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	return total
}

// mergeTaggedInto is the one gather loop behind mergeTagged and the grace
// recursion's mergeTaggedSorted: a hand-rolled cursor heap (h holds
// partition indices, pos the heads) — unlike the sort gather's
// container/heap runHeap, this runs once per output tuple of every hash
// exchange, where the interface dispatch of heap.Interface is measurable.
func mergeTaggedInto(parts [][]tagged, emit func(tagged)) {
	pos := make([]int, len(parts))
	less := func(a, b int) bool {
		sa, sb := parts[a][pos[a]].seq, parts[b][pos[b]].seq
		if sa != sb {
			return sa < sb
		}
		return a < b
	}
	var h []int
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
	for i, p := range parts {
		if len(p) > 0 {
			h = append(h, i)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(h) > 0 {
		p := h[0]
		emit(parts[p][pos[p]])
		pos[p]++
		if pos[p] >= len(parts[p]) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(0)
	}
}

// parallelProductIter evaluates the keyless × / ×ᵀ (optionally with a fused
// residual predicate) under a parallel exchange: there is no key to
// partition on, so the build side is shared read-only and the probe side
// chunks positionally against it. Every emitted pair is tagged with its
// probe tuple's global position, so the gather restores the reference's
// left-major pair sequence exactly. (Keyed joins fan out through the batch
// exchange, vecParallelJoinSource.)
func (e *Engine) parallelProductIter(l, r *source, out *schema.Schema, residual expr.Pred, temporal bool) iterator {
	workers := e.exchange()
	j := newPairJoiner(l, r, out, nil, nil, residual, temporal)
	return &lazyIter{compute: func() ([]relation.Tuple, error) {
		lr, err := drain(l)
		if err != nil {
			return nil, err
		}
		rr, err := drain(r)
		if err != nil {
			return nil, err
		}
		brows := rr.Tuples()
		rps := j.periodsOf(brows)
		chunks := chunkRanges(lr.Len(), workers)
		outParts := make([][]tagged, len(chunks))
		if err := runTasks(workers, len(chunks), func(c int) error {
			res, err := j.joinChunk(lr.Tuples()[chunks[c][0]:chunks[c][1]], chunks[c][0], nil, brows, rps, nil, nil)
			if err != nil {
				return err
			}
			outParts[c] = res
			return nil
		}); err != nil {
			return nil, err
		}
		return mergeTagged(outParts), nil
	}}
}

// parallelValueGroupSource runs a value-equivalence group transform
// (rdupᵀ's head/subtract elimination, coalᵀ's adjacency merge) under a
// parallel exchange. With a delivered order proving value groups contiguous
// the exchange is range-shaped: whole-group segments process independently
// and concatenate. Otherwise tuples route by value hash, each worker
// transforms its partition's groups over globally-positioned rows, and the
// gather re-interleaves the fragments into original list order — exactly
// the sequential operator's stable merge by original position, computed
// across partitions.
func (e *Engine) parallelValueGroupSource(in *source, vidx []int, order relation.OrderSpec, transform func([]row, int, int) []row) *source {
	workers := e.exchange()
	t1, t2 := in.schema.TimeIndices()
	contiguous := !e.opts.NoMerge && physical.GroupsContiguous(in.order, in.schema, vidx)
	return lazySource(in.schema, order, func() ([]relation.Tuple, error) {
		r, err := drain(in)
		if err != nil {
			return nil, err
		}
		rows := r.Tuples()
		if contiguous {
			return runSegmented(workers, rows, vidx, groupEmitter(t1, t2, transform))
		}
		parts := hashPartition(workers, rows, vidx, workers)
		outParts := make([][]tagged, len(parts))
		if err := runTasks(workers, len(parts), func(pt int) error {
			outParts[pt] = valueGroupPartition(parts[pt], vidx, t1, t2, transform)
			return nil
		}); err != nil {
			return nil, err
		}
		return mergeTagged(outParts), nil
	})
}

// parallelGroupAggSource runs a grouping operator whose output is one batch
// of tuples per group in group first-occurrence order — aggregation, its
// temporal variant, and rdup (grouping on every attribute, the first
// occurrence surviving). The exchange is range-shaped when the delivered
// order proves groups contiguous, hash otherwise; the hash gather tags each
// group's batch with the group's first-occurrence position and merges.
func (e *Engine) parallelGroupAggSource(in *source, gidx []int, outSchema *schema.Schema, order relation.OrderSpec, emit func([]relation.Tuple) ([]relation.Tuple, error)) *source {
	workers := e.exchange()
	contiguous := !e.opts.NoMerge && physical.GroupsContiguous(in.order, in.schema, gidx)
	return lazySource(outSchema, order, func() ([]relation.Tuple, error) {
		r, err := drain(in)
		if err != nil {
			return nil, err
		}
		rows := r.Tuples()
		if contiguous {
			return runSegmented(workers, rows, gidx, emit)
		}
		parts := hashPartition(workers, rows, gidx, workers)
		outParts := make([][]tagged, len(parts))
		if err := runTasks(workers, len(parts), func(pt int) error {
			res, err := groupAggPartition(parts[pt], gidx, emit)
			if err != nil {
				return err
			}
			outParts[pt] = res
			return nil
		}); err != nil {
			return nil, err
		}
		return mergeTagged(outParts), nil
	})
}

// valueMembership groups one partition's two sides into a shared
// value-equivalence id space — the common scaffolding of the two-sided
// temporal exchanges. leftMembers/rightMembers hold partition-local row
// indices per group; rOrder lists the group ids in first-right-occurrence
// order (∪ᵀ's emission order; \ᵀ ignores it).
func valueMembership(lp, rp []prow, vidx []int) (leftMembers, rightMembers [][]int, rOrder []int) {
	groups := newHashGroups(vidx, len(lp)+len(rp))
	grow := func(fresh bool) {
		if fresh {
			leftMembers = append(leftMembers, nil)
			rightMembers = append(rightMembers, nil)
		}
	}
	for k, pr := range lp {
		gid, fresh := groups.groupOf(pr.t)
		grow(fresh)
		leftMembers[gid] = append(leftMembers[gid], k)
	}
	for k, pr := range rp {
		gid, fresh := groups.groupOf(pr.t)
		grow(fresh)
		if len(rightMembers[gid]) == 0 {
			rOrder = append(rOrder, gid)
		}
		rightMembers[gid] = append(rightMembers[gid], k)
	}
	return leftMembers, rightMembers, rOrder
}

// memberPeriods collects the periods of the partition rows at idxs.
func memberPeriods(rows []prow, idxs []int, t1, t2 int) []period.Period {
	ps := make([]period.Period, len(idxs))
	for x, k := range idxs {
		ps[x] = rows[k].t.PeriodAt(t1, t2)
	}
	return ps
}

// parallelTDiffSource runs \ᵀ with a value-hash exchange on both sides:
// every value-equivalence group lands wholly in one partition, the
// sequential per-group elementary-interval subtraction runs per partition,
// and the surviving fragments merge back into left list order.
func (e *Engine) parallelTDiffSource(l, r *source, order relation.OrderSpec) *source {
	workers := e.exchange()
	return lazySource(l.schema, order, func() ([]relation.Tuple, error) {
		lr, err := drain(l)
		if err != nil {
			return nil, err
		}
		rr, err := drain(r)
		if err != nil {
			return nil, err
		}
		t1, t2 := lr.Schema().TimeIndices()
		vidx := valueIdx(lr.Schema())
		lparts := hashPartition(workers, lr.Tuples(), vidx, workers)
		rparts := hashPartition(workers, rr.Tuples(), vidx, workers)
		outParts := make([][]tagged, workers)
		if err := runTasks(workers, workers, func(pt int) error {
			outParts[pt] = tdiffPartition(lparts[pt], rparts[pt], vidx, t1, t2)
			return nil
		}); err != nil {
			return nil, err
		}
		return mergeTagged(outParts), nil
	})
}

// parallelTUnionSource runs ∪ᵀ with a value-hash exchange on both sides:
// the left list passes through whole, each worker computes its partition's
// right-excess layers per value group, and the gather merges the group
// contributions into global first-right-occurrence order behind the left
// list.
func (e *Engine) parallelTUnionSource(l, r *source) *source {
	workers := e.exchange()
	return lazySource(l.schema, nil, func() ([]relation.Tuple, error) {
		lr, err := drain(l)
		if err != nil {
			return nil, err
		}
		rr, err := drain(r)
		if err != nil {
			return nil, err
		}
		t1, t2 := lr.Schema().TimeIndices()
		vidx := valueIdx(lr.Schema())
		lparts := hashPartition(workers, lr.Tuples(), vidx, workers)
		rparts := hashPartition(workers, rr.Tuples(), vidx, workers)
		outParts := make([][]tagged, workers)
		if err := runTasks(workers, workers, func(pt int) error {
			outParts[pt] = tunionPartition(lparts[pt], rparts[pt], vidx, t1, t2, 0)
			return nil
		}); err != nil {
			return nil, err
		}
		extra := mergeTagged(outParts)
		out := make([]relation.Tuple, 0, lr.Len()+len(extra))
		out = append(out, lr.Tuples()...)
		return append(out, extra...), nil
	})
}

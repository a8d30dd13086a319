// The parallel pieces shared by the exchange driver (grace.go) and the
// operators that fan out on their own: the bounded worker pool, the two
// partition functions of the W-way route and the join's probe-range
// exchange.
package exec

import (
	"sync"
	"sync/atomic"

	"tqp/internal/column"
)

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

// hashParts scatters a compacted batch's rows into p partitions by the
// canonical hash of the key columns, preserving row order within each
// partition — the hash exchange: every key group lands wholly in one
// partition in list order, and a row's physical index is its sequence key.
func hashParts(b *column.Batch, idx []int, p int) []part {
	parts := make([]part, p)
	if b == nil {
		return parts
	}
	counts := make([]int, p)
	buckets := make([]int32, b.N)
	for i := 0; i < b.N; i++ {
		bk := int(rowHash(b, i, idx) % uint64(p))
		buckets[i] = int32(bk)
		counts[bk]++
	}
	for bk := range parts {
		parts[bk] = part{b: b, rows: make([]int, 0, counts[bk])}
	}
	for i, bk := range buckets {
		parts[bk].rows = append(parts[bk].rows, i)
	}
	return parts
}

// rangeParts splits a compacted batch's rows into at most p contiguous
// segments whose boundaries never split a run of rows equal on idx — the
// range exchange: with the delivered order proving groups contiguous, each
// segment holds whole groups and the segment outputs concatenate in order.
func rangeParts(b *column.Batch, idx []int, p int) []part {
	var parts []part
	all := identityIdx(b.N)
	target := (b.N + p - 1) / p
	for lo := 0; lo < b.N; {
		hi := lo + target
		if hi > b.N {
			hi = b.N
		}
		for hi < b.N && keysEqual(b, hi, b, hi-1, idx) {
			hi++
		}
		parts = append(parts, part{b: b, rows: all[lo:hi:hi]})
		lo = hi
	}
	return parts
}

// lazyBatchesIter computes a fixed batch list on first pull and emits the
// non-empty entries in order.
type lazyBatchesIter struct {
	compute func() ([]*column.Batch, error)
	started bool
	bs      []*column.Batch
	k       int
}

func (it *lazyBatchesIter) nextBatch() (*column.Batch, error) {
	if !it.started {
		bs, err := it.compute()
		if err != nil {
			return nil, err
		}
		it.bs, it.started = bs, true
	}
	for it.k < len(it.bs) {
		b := it.bs[it.k]
		it.k++
		if b != nil && b.Rows() > 0 {
			return b, nil
		}
	}
	return nil, nil
}

func (it *lazyBatchesIter) close() error { return nil }

// rangeBatchIter presents one contiguous range of a batch's presented rows
// as a single-batch columnar stream — for a compacted batch an offset slice
// over the shared planes, so a worker scans its range with no selection
// indirection and nothing is copied.
type rangeBatchIter struct {
	b      *column.Batch
	lo, hi int
	done   bool
}

func (it *rangeBatchIter) nextBatch() (*column.Batch, error) {
	if it.done || it.lo >= it.hi {
		return nil, nil
	}
	it.done = true
	return it.b.RangeView(it.lo, it.hi), nil
}

func (it *rangeBatchIter) close() error { return nil }

// vecParallelJoinSource is the parallel × / ×ᵀ: the build side drains once
// into the shared columnar hash table (one group under the empty key of a
// keyless product), the probe side drains into one batch whose presented
// rows split into contiguous worker ranges, each worker streams its range
// through its own probe cursor over the shared read-only table, and the
// workers' output batches concatenate in range order — which is exactly the
// sequential join's left-major emission order, so no tag gather is needed.
func (e *Engine) vecParallelJoinSource(l, r *source, j *pairJoiner) *source {
	workers := e.exchange()
	tmpl := j.joinIter(nil, r)
	compute := func() ([]*column.Batch, error) {
		// The view drain: a filtered scan arrives as one selection view and
		// splits by presented rows — compacting 50% of a million-row batch
		// before the scatter would cost more than the exchange saves.
		pb, err := vecDrainOneView(l.vec, l.schema)
		if err != nil {
			r.vec.close()
			return nil, err
		}
		if err := tmpl.buildSide(); err != nil {
			return nil, err
		}
		rows := pb.Rows()
		if rows == 0 || tmpl.build.N == 0 {
			return nil, nil
		}
		outs := make([][]*column.Batch, workers)
		if err := runTasks(workers, workers, func(p int) error {
			// Worker copy: shared build table (read-only after buildSide),
			// own probe cursor. The template's engine is nil, so the copies
			// never write stats concurrently — the batch count below is the
			// spawner's.
			w := *tmpl
			w.left = &rangeBatchIter{b: pb, lo: p * rows / workers, hi: (p + 1) * rows / workers}
			for {
				ob, err := w.nextBatch()
				if err != nil {
					return err
				}
				if ob == nil {
					return nil
				}
				outs[p] = append(outs[p], ob)
			}
		}); err != nil {
			return nil, err
		}
		var bs []*column.Batch
		for _, o := range outs {
			bs = append(bs, o...)
		}
		e.stats.VectorBatches += len(bs)
		return bs, nil
	}
	return vecSource(&lazyBatchesIter{compute: compute}, j.out)
}

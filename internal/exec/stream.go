package exec

import (
	"fmt"

	"tqp/internal/algebra"
	"tqp/internal/column"
	"tqp/internal/eval"
	"tqp/internal/physical"
	"tqp/internal/relation"
	"tqp/internal/schema"
)

// buildRel compiles a base-relation scan.
func (e *Engine) buildRel(n *algebra.Rel) (*source, error) {
	r, order, err := e.resolve(n)
	if err != nil {
		return nil, err
	}
	// A scan travels as the relation's one batch.
	return &source{vec: &onceBatchIter{compute: func() (*column.Batch, error) { return r.Columns(), nil }}, schema: r.Schema(), order: order}, nil
}

// resolve looks up the relation a scan reads and the order it delivers: its
// declared order, or its instance's when none is declared.
func (e *Engine) resolve(n *algebra.Rel) (*relation.Relation, relation.OrderSpec, error) {
	r, err := e.src.Resolve(n.Name)
	if err != nil {
		return nil, nil, err
	}
	if !r.Schema().Equal(n.Sch) {
		return nil, nil, fmt.Errorf("exec: relation %q schema mismatch: plan %s vs instance %s",
			n.Name, n.Sch, r.Schema())
	}
	if !n.Info.Order.Empty() {
		return r, n.Info.Order, nil
	}
	return r, r.Order(), nil
}

// scanList answers a plan that is nothing but a scan — a DBMS subplan
// reading one relation — without a pipeline: there is no operator to feed,
// so the result shares the relation's batch (relation.Clone, as the
// reference evaluator copies it).
func (e *Engine) scanList(n *algebra.Rel) (*relation.Relation, error) {
	r, order, err := e.resolve(n)
	if err != nil {
		return nil, err
	}
	out := r.Clone()
	out.SetOrder(order)
	if e.observe != nil {
		st := &stage{e: e, node: n}
		st.Rows, st.Batches = int64(out.Len()), 1
		e.stages = append(e.stages, st)
	}
	return out, nil
}

// buildSelect compiles σ_P: a batch-at-a-time filter emitting selection
// views, retaining order, duplicates and coalescing.
func (e *Engine) buildSelect(n *algebra.Select, in *source) *source {
	v := &vecFilterIter{in: in.vec, p: n.P, schema: in.schema, fast: compileVecPred(n.P, in.schema)}
	return vecSource(v, in.schema)
}

// buildProject compiles π.
func (e *Engine) buildProject(n *algebra.Project, in *source, outSchema *schema.Schema) *source {
	items := make([]projVecItem, len(n.Items))
	for i, it := range n.Items {
		items[i].eval = it.Expr
	}
	gather := compileProjItems(items, in.schema)
	v := &vecProjectIter{in: in.vec, items: items, gather: gather, inSchema: in.schema, outSchema: outSchema}
	return vecSource(v, outSchema)
}

// buildSort compiles sort_A. When the input already delivers an order A is
// a prefix of, the sort is a physical no-op (a stable sort cannot move any
// tuple) and compilation elides it outright, passing the input stage —
// and its stronger order — through. Otherwise the input sorts as a stable
// permutation of row indices over its column planes (index runs sorted
// across the worker pool under Parallelism); only the budgeted engine runs
// the explicit external merge sort, whose runs cut by bytes and spill.
func (e *Engine) buildSort(n *algebra.Sort, in *source) *source {
	if !e.opts.NoSortElision && n.Spec.IsPrefixOf(in.order) {
		e.stats.SortsElided++
		return in
	}
	e.stats.MergeSorts++
	if !e.budgeted() {
		return e.vecSortSource(in, n.Spec)
	}
	m := &mergeSortIter{eng: e, in: in.vec, schema: in.schema, cmp: compileVecCmp(in.schema, n.Spec)}
	return vecSource(m, in.schema)
}

// vecConcatIter is ⊔: the left batch stream, then the right. The schemas are
// equal, so the right batches pass as they are.
type vecConcatIter struct {
	cur, rest vecIterator
}

func (c *vecConcatIter) nextBatch() (*column.Batch, error) {
	for {
		b, err := c.cur.nextBatch()
		if err != nil || b != nil {
			return b, err
		}
		if c.rest == nil {
			return nil, nil
		}
		if err := c.cur.close(); err != nil {
			return nil, err
		}
		c.cur, c.rest = c.rest, nil
	}
}

func (c *vecConcatIter) close() error {
	err := c.cur.close()
	if c.rest != nil {
		if err2 := c.rest.close(); err == nil {
			err = err2
		}
	}
	return err
}

// streams reports that a one-sided grouping operator runs its bounded
// group-at-a-time algorithm (groupCutIter, the adjacent-compare dedup) ahead of
// the exchange driver: the delivered order keeps its groups contiguous and
// merge variants are allowed. One group of state is already memory-bounded,
// so the budgeted engine prefers it over partitioning; under plain
// parallelism the driver's range exchange over the same contiguity wins.
func (e *Engine) streams(in *source, idx []int) bool {
	return !e.opts.NoMerge && !(e.parallel() && !e.budgeted()) && physical.GroupsContiguous(in.order, in.schema, idx)
}

// buildRdup compiles rdup: streaming duplicate elimination. The first
// occurrence survives, so the argument's order is retained (time attributes
// qualified — the result is a snapshot relation). An input delivered in an
// order covering every attribute keeps equal tuples contiguous, so a single
// adjacent comparison replaces the hash set.
func (e *Engine) buildRdup(in *source, outSchema *schema.Schema) *source {
	idx := identityIdx(in.schema.Len())
	if e.streams(in, idx) {
		// The adjacent-compare dedup carries one (batch, row) reference of
		// state.
		e.stats.MergeOps++
		all := physical.JoinKeys{L: idx, R: idx, Dirs: make([]relation.Direction, len(idx))}
		return vecSource(&vecDedupSortedIter{in: in.vec, cmp: compileVecJoinCmp(in.schema, in.schema, all)}, outSchema)
	}
	if !e.parallel() && !e.budgeted() {
		// The pipelined hash set never drains its input — a different
		// algorithm from the driver's partition body, kept for the
		// sequential engine.
		return vecSource(&vecRdupIter{in: in.vec}, outSchema)
	}
	return e.keyedSource(&keyedOp{
		l: in, lidx: idx, contiguous: groupsContiguous(in.order, in.schema, idx),
		out: outSchema, body: rdupBody(idx),
	})
}

// alignedMerge reports the shared total order under which \ and ∪ run
// their two-pointer merge instead of the exchange driver. The merge
// materializes one whole side, so it is the sequential engine's variant
// only: under a budget or a worker pool the driver partitions that side
// instead.
func (e *Engine) alignedMerge(l, r *source) (relation.OrderSpec, bool) {
	if e.opts.NoMerge || e.budgeted() || e.parallel() {
		return nil, false
	}
	return physical.AlignedTotalOrder(l.order, r.order, l.schema)
}

// buildDiff compiles the multiset difference \: the earliest left
// occurrences absorb the subtraction, retaining the left order and the late
// duplicates. When both inputs deliver one shared total order, a two-pointer
// merge replaces the hash multiplicity counters; otherwise the hash
// anti-semi pass runs.
func (e *Engine) buildDiff(l, r *source, outSchema *schema.Schema) *source {
	if spec, ok := e.alignedMerge(l, r); ok {
		e.stats.MergeOps++
		m := &vecMergeCancelIter{stream: l.vec, sorted: r, cmp: compileVecCmp(l.schema, spec)}
		return vecSource(m, outSchema)
	}
	idx := identityIdx(l.schema.Len())
	return e.keyedSource(&keyedOp{l: l, r: r, lidx: idx, ridx: idx, out: outSchema, body: diffBody(idx)})
}

// buildUnion compiles the multiset union ∪ of Albert [1]: each tuple occurs
// max(n1, n2) times; unordered result. When both inputs deliver one shared
// total order, a two-pointer merge replaces the hash multiplicity counters.
func (e *Engine) buildUnion(l, r *source) *source {
	if spec, ok := e.alignedMerge(l, r); ok {
		e.stats.MergeOps++
		m := &vecMergeCancelIter{stream: r.vec, sorted: l, emitSorted: true, cmp: compileVecCmp(l.schema, spec)}
		return vecSource(m, l.schema)
	}
	idx := identityIdx(l.schema.Len())
	return e.keyedSource(&keyedOp{l: l, r: r, lidx: idx, ridx: idx, out: l.schema, body: unionBody(idx)})
}

// buildAggregate compiles 𝒢. Over an input whose delivered order keeps
// grouping columns contiguous, the operator runs group-at-a-time
// (groupCutIter): a group's result row is emitted with the slice of the
// stream that ends the group — a pipeline with bounded state. Otherwise the
// input streams into per-group accumulators held in a
// first-occurrence-ordered hash table and one row per group is emitted once
// the input is exhausted; the group orders coincide because contiguous
// groups appear in first-occurrence order.
func (e *Engine) buildAggregate(n *algebra.Aggregate, in *source, outSchema *schema.Schema) *source {
	gidx := make([]int, len(n.GroupBy))
	for i, g := range n.GroupBy {
		gidx[i] = in.schema.Index(g)
	}
	streams := e.streams(in, gidx)
	if !streams && (len(gidx) == 0 || (!e.parallel() && !e.budgeted())) {
		// Pipelined hash aggregation never drains its input; a GROUP-BY-less
		// aggregate folds one global set of accumulators — state bounded by
		// construction, nothing to partition.
		return e.vecAggregateSource(in, gidx, outSchema, n.Aggs)
	}
	emit := func(p part, members []int32, sc *scratch, ob *column.Batch) error {
		accs := eval.NewAccumulators(n.Aggs, in.schema)
		for _, k := range members {
			p.b.FillRow(sc.row, p.rows[k])
			if err := eval.FoldAggregates(accs, n.Aggs, in.schema, sc.row); err != nil {
				return err
			}
		}
		appendGroupRow(ob, p.b, p.rows[members[0]], gidx, accs)
		return nil
	}
	return e.groupSource(in, gidx, outSchema, func(contiguous bool) partBody {
		return groupEmitBody(gidx, contiguous, outSchema, emit)
	})
}

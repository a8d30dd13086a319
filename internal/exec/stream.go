package exec

import (
	"fmt"

	"tqp/internal/algebra"
	"tqp/internal/column"
	"tqp/internal/eval"
	"tqp/internal/physical"
	"tqp/internal/props"
	"tqp/internal/relation"
	"tqp/internal/schema"
)

// buildRel compiles a base-relation scan.
func (e *Engine) buildRel(n *algebra.Rel) (*source, error) {
	r, order, err := e.resolve(n)
	if err != nil {
		return nil, err
	}
	st, err := props.StateAt(n, props.Stratum, nil)
	if err != nil {
		return nil, err
	}
	st.Order = order
	// A scan travels as the relation's one batch.
	return &source{vec: &onceBatchIter{compute: func() (*column.Batch, error) { return r.Columns(), nil }}, schema: r.Schema(), state: st}, nil
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

// buildSort compiles sort_A. An elided sort — the input already delivers an
// order A is a prefix of — is a physical no-op (a stable sort cannot move
// any tuple), so compilation passes the input stage, and its stronger
// order, through. Every other sort is mergeSortIter: the input sorts as a
// stable permutation of row indices over its column planes (index runs
// sorted across the worker pool under Parallelism), and only a budgeted
// sort whose input crosses its share spills runs cut by bytes and merges
// them.
func (e *Engine) buildSort(n *algebra.Sort, d physical.Decision, in *source) *source {
	if d.SortElided {
		return in
	}
	m := &mergeSortIter{eng: e, in: in.vec, schema: in.schema, cmp: compileVecCmp(in.schema, n.Spec), share: noShare, workers: 1}
	if d.Spills {
		m.share = e.opShare()
	}
	if e.parallel() {
		m.workers = e.exchange()
	}
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

// buildRdup compiles rdup: streaming duplicate elimination. The first
// occurrence survives, so the argument's order is retained (time attributes
// qualified — the result is a snapshot relation). Its merge variant is a
// single adjacent comparison over an input whose order keeps equal tuples
// contiguous, carrying one (batch, row) reference of state.
func (e *Engine) buildRdup(d physical.Decision, in *source, outSchema *schema.Schema) *source {
	switch {
	case d.Merge:
		return vecSource(&vecDedupSortedIter{in: in.vec, cmp: compileVecJoinCmp(in.schema, in.schema, d.MergeKeys)}, outSchema)
	case !d.Exchange && !d.Spills:
		// The pipelined hash set never drains its input — a different
		// algorithm from the driver's partition body, kept for the
		// sequential engine.
		return vecSource(&vecRdupIter{in: in.vec}, outSchema)
	}
	return e.keyedSource(&keyedOp{l: in, lidx: d.Keys, contiguous: d.Contiguous, out: outSchema, body: rdupBody(d.Keys)})
}

// buildDiff compiles the multiset difference \: the earliest left
// occurrences absorb the subtraction, retaining the left order and the late
// duplicates. Its merge variant is a two-pointer merge under the inputs'
// shared total order; otherwise the hash anti-semi pass runs.
func (e *Engine) buildDiff(d physical.Decision, l, r *source, outSchema *schema.Schema) *source {
	if d.Merge {
		m := &vecMergeCancelIter{stream: l.vec, sorted: r, cmp: compileVecCmp(l.schema, d.MergeSpec)}
		return vecSource(m, outSchema)
	}
	return e.keyedSource(&keyedOp{l: l, r: r, lidx: d.Keys, ridx: d.RKeys, out: outSchema, body: diffBody(d.Keys)})
}

// buildUnion compiles the multiset union ∪ of Albert [1]: each tuple occurs
// max(n1, n2) times; unordered result. Its merge variant is a two-pointer
// merge under the inputs' shared total order in place of the hash
// multiplicity counters.
func (e *Engine) buildUnion(d physical.Decision, l, r *source) *source {
	if d.Merge {
		m := &vecMergeCancelIter{stream: r.vec, sorted: l, emitSorted: true, cmp: compileVecCmp(l.schema, d.MergeSpec)}
		return vecSource(m, l.schema)
	}
	return e.keyedSource(&keyedOp{l: l, r: r, lidx: d.Keys, ridx: d.RKeys, out: l.schema, body: unionBody(d.Keys)})
}

// buildAggregate compiles 𝒢. Over an input whose delivered order keeps
// grouping columns contiguous, the operator runs group-at-a-time
// (groupCutIter): a group's result row is emitted with the slice of the
// stream that ends the group — a pipeline with bounded state. Otherwise the
// input streams into per-group accumulators held in a
// first-occurrence-ordered hash table and one row per group is emitted once
// the input is exhausted; the group orders coincide because contiguous
// groups appear in first-occurrence order.
func (e *Engine) buildAggregate(n *algebra.Aggregate, d physical.Decision, in *source, outSchema *schema.Schema) *source {
	gidx := d.Keys
	if !d.Merge && !d.Exchange && !d.Spills {
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
	return e.groupSource(in, d, outSchema, groupEmitBody(gidx, d.Contiguous, outSchema, emit))
}

// Package eval implements the reference evaluator of the algebra: a direct,
// list-semantics implementation of every operation of Section 2.4, faithful
// to the paper's definitions including tuple order, duplicate handling, and
// coalescing behaviour (Table 1).
//
// The evaluator is deliberately straightforward — it is the executable
// specification against which transformation rules, property inference and
// the stratum executor are verified. Temporal operations are implemented
// with exact snapshot-reducible semantics and deterministic list output.
package eval

import (
	"fmt"
	"time"

	"tqp/internal/algebra"
	"tqp/internal/obs"
	"tqp/internal/physical"
	"tqp/internal/props"
	"tqp/internal/relation"
	"tqp/internal/schema"
)

// Source resolves base-relation names to instances; the catalog implements
// it.
type Source interface {
	Resolve(name string) (*relation.Relation, error)
}

// MapSource is a trivial Source over a map, for tests and examples.
type MapSource map[string]*relation.Relation

// Resolve implements Source.
func (m MapSource) Resolve(name string) (*relation.Relation, error) {
	r, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("eval: unknown relation %q", name)
	}
	return r, nil
}

// Engine evaluates operator trees to relations. Two implementations exist:
// the reference Evaluator of this package (the executable specification) and
// the streaming hash-based engine of package exec. Both produce identical
// result lists — exec is verified against the evaluator by differential
// testing — so they are interchangeable wherever a plan is run.
type Engine interface {
	Eval(n algebra.Node) (*relation.Relation, error)
}

// NodeObserver is the optional interface of an engine that reports per-node
// actuals: after ObserveNodes, an Eval that succeeds has called fn once for
// every node of the tree it was handed, on the evaluating goroutine, in no
// particular order, with the physical variant it compiled for the node (the
// zero Variant for an engine that has no variants to choose). Rows and
// Batches are always set. Wall and the Spill counts (SpilledOps,
// SpilledBytes, SpillFiles) cover the node's whole subtree (its own share
// is that less its children's, obs.Spill.Less); a pipelining engine must
// read a clock around every pull to attribute them, so it fills them only
// when timed is set. The run's PeakBytes, and its spill totals even
// untimed, arrive on the root.
type NodeObserver interface {
	ObserveNodes(timed bool, fn func(n algebra.Node, d physical.Variant, s obs.RunSample))
}

// Factory constructs an engine over a tuple source. The stratum executor
// binds the transferred relations of each region between transfers as base
// relations of that region's own source, so it needs a factory rather than
// a single engine instance.
type Factory func(src Source) Engine

// EngineSpec names a physical engine and carries what the executor and the
// cost model need to know about it.
type EngineSpec struct {
	// Name identifies the engine ("reference" or "exec").
	Name string
	// New constructs an engine over a source.
	New Factory
	// Streaming reports that the engine is package exec's: hash/one-pass
	// physical operators, changing the stratum's cost shapes from pairwise
	// and log-factor formulas to linear ones, over columnar batches —
	// parallel exchanges scatter batch views over shared column planes and
	// budgeted operators write spill partitions as columnar blocks, which
	// the cost model prices with cost.Params VecExchangeFactor and
	// VecSpillFactor.
	Streaming bool
	// Parallelism is the worker count of a morsel-parallel engine (exec's
	// Config.Parallelism); 0 or 1 means sequential execution. The cost model
	// uses it to price partitioned operators as per-partition work plus
	// exchange and gather charges.
	Parallelism int
	// MemoryBudget is the working-set byte bound of a memory-bounded engine
	// (exec's Config.MemoryBudget); 0 means unlimited. The cost model uses
	// it to price grace-hash spilling (SpillWrite/SpillRead per tuple) on
	// operators whose estimated state exceeds the per-worker budget share,
	// so the optimizer can trade sorts against spilling hash operators.
	MemoryBudget int64
}

// Shape is the engine's shape for physical.Decide: the variants the exec
// engine compiles depend on its width and budget besides delivered orders.
func (s EngineSpec) Shape() physical.Shape {
	return physical.ShapeOf(s.Parallelism, s.MemoryBudget)
}

// Instantiate constructs a fresh engine over src from the spec — the
// per-region instantiation path: holders share one immutable EngineSpec (the
// server's sessions, the stratum executor) and build a private engine per
// region evaluated, so no engine state is ever shared across concurrent
// queries.
// A zero spec (nil New) instantiates the reference evaluator.
func (s EngineSpec) Instantiate(src Source) Engine {
	if s.New == nil {
		return New(src)
	}
	return s.New(src)
}

// Reference returns the spec of this package's reference evaluator.
func Reference() EngineSpec {
	return EngineSpec{
		Name:      "reference",
		New:       func(src Source) Engine { return New(src) },
		Streaming: false,
	}
}

// Evaluator evaluates operator trees against a Source.
type Evaluator struct {
	src     Source
	observe func(n algebra.Node, d physical.Variant, s obs.RunSample)
}

// New returns an evaluator over src.
func New(src Source) *Evaluator { return &Evaluator{src: src} }

// ObserveNodes implements NodeObserver: a sample is the length of the node's
// materialized result and the wall time of its Eval call, timed or not.
func (e *Evaluator) ObserveNodes(_ bool, fn func(n algebra.Node, d physical.Variant, s obs.RunSample)) {
	e.observe = fn
}

// Eval evaluates the tree rooted at n and returns its result relation. The
// list is the reference every engine is held to; its Order() is the label
// props.OrderOf gives it, Table 1's one copy.
func (e *Evaluator) Eval(n algebra.Node) (*relation.Relation, error) {
	if e.observe == nil {
		return e.evalNode(n)
	}
	start := time.Now()
	r, err := e.evalNode(n)
	if err == nil {
		e.observe(n, physical.Variant{}, obs.RunSample{Rows: int64(r.Len()), Wall: time.Since(start)})
	}
	return r, err
}

// evalNode evaluates one node. A base relation resolves itself; any other
// node evaluates its children through Eval, derives its schema, runs its
// kernel and labels the result with its Table 1 order — the one place the
// evaluator orders a result.
func (e *Evaluator) evalNode(n algebra.Node) (*relation.Relation, error) {
	if rel, ok := n.(*algebra.Rel); ok {
		return e.evalRel(rel)
	}
	ch := n.Children()
	var buf [2]*relation.Relation
	var orders [2]relation.OrderSpec
	in := buf[:len(ch)]
	for i, c := range ch {
		r, err := e.Eval(c)
		if err != nil {
			return nil, err
		}
		in[i], orders[i] = r, r.Order()
	}
	out, err := n.Schema()
	if err != nil {
		return nil, err
	}
	r, err := kernel(n, in, out)
	if err != nil {
		return nil, err
	}
	r.SetOrder(props.OrderOf(n, orders[:len(ch)]...))
	return r, nil
}

// kernel computes n's result list from its arguments' lists.
func kernel(n algebra.Node, in []*relation.Relation, out *schema.Schema) (*relation.Relation, error) {
	switch node := n.(type) {
	case *algebra.Select:
		return evalSelect(node, in[0])
	case *algebra.Project:
		return evalProject(node, in[0], out)
	case *algebra.Aggregate:
		if node.Op() == algebra.OpTAggregate {
			return evalTAggregate(node, in[0], out)
		}
		return evalAggregate(node, in[0], out)
	case *algebra.Sort:
		return evalSort(node, in[0])
	case *algebra.Join:
		// The join idioms evaluate as their defining expansion, fusing the
		// selection into the pair loop.
		if node.Op() == algebra.OpTJoin {
			return evalTProduct(in[0], in[1], out, node.P)
		}
		return evalProduct(in[0], in[1], out, node.P)
	}
	switch n.Op() {
	case algebra.OpUnionAll:
		return evalUnionAll(in[0], in[1], out), nil
	case algebra.OpUnion:
		return evalUnion(in[0], in[1], out), nil
	case algebra.OpTUnion:
		return evalTUnion(in[0], in[1], out), nil
	case algebra.OpProduct:
		return evalProduct(in[0], in[1], out, nil)
	case algebra.OpTProduct:
		return evalTProduct(in[0], in[1], out, nil)
	case algebra.OpDiff:
		return evalDiff(in[0], in[1], out), nil
	case algebra.OpTDiff:
		return evalTDiff(in[0], in[1], out), nil
	case algebra.OpRdup:
		return evalRdup(in[0], out), nil
	case algebra.OpTRdup:
		return evalTRdup(in[0], out), nil
	case algebra.OpCoal:
		return evalCoal(in[0], out), nil
	case algebra.OpTransferS, algebra.OpTransferD:
		// In the reference evaluator, transfers are identities on data;
		// their cost and site semantics live in the stratum executor.
		return in[0], nil
	default:
		return nil, fmt.Errorf("eval: unsupported operator %s", n.Op())
	}
}

func (e *Evaluator) evalRel(n *algebra.Rel) (*relation.Relation, error) {
	r, err := e.src.Resolve(n.Name)
	if err != nil {
		return nil, err
	}
	if !r.Schema().Equal(n.Sch) {
		return nil, fmt.Errorf("eval: relation %q schema mismatch: plan %s vs instance %s",
			n.Name, n.Sch, r.Schema())
	}
	out := r.Clone()
	if !n.Info.Order.Empty() {
		out.SetOrder(n.Info.Order)
	}
	return out, nil
}

// evalSelect implements σ_P: retains order, duplicates and coalescing.
func evalSelect(n *algebra.Select, in *relation.Relation) (*relation.Relation, error) {
	var out []relation.Tuple
	for _, t := range in.Tuples() {
		ok, err := n.P.Holds(in.Schema(), t)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, t)
		}
	}
	return relation.FromTuplesTrusted(in.Schema(), out), nil
}

// evalProject implements the generalized projection π. Result order is
// Prefix(Order(r), ProjPairs): the largest prefix of the argument's order
// whose attributes survive the projection (identity or pure-rename items).
func evalProject(n *algebra.Project, in *relation.Relation, outSchema *schema.Schema) (*relation.Relation, error) {
	var out []relation.Tuple
	for _, t := range in.Tuples() {
		nt := make(relation.Tuple, len(n.Items))
		for i, it := range n.Items {
			v, err := it.Expr.Eval(in.Schema(), t)
			if err != nil {
				return nil, err
			}
			nt[i] = v
		}
		out = append(out, nt)
	}
	return relation.FromTuplesTrusted(outSchema, out), nil
}

// evalSort implements sort_A via a stable sort; stability preserves the
// relative order of tuples equal under the spec, so sorting "retains
// duplicates" and the special case of Table 1 — sorting on a prefix of
// Order(r) keeps the full order — holds operationally.
func evalSort(n *algebra.Sort, in *relation.Relation) (*relation.Relation, error) {
	return in.Sorted(n.Spec)
}

package exec

import (
	"fmt"
	"time"

	"tqp/internal/algebra"
	"tqp/internal/column"
	"tqp/internal/eval"
	"tqp/internal/obs"
	"tqp/internal/props"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/spill"
)

// Stats counts the physical variants the engine's most recent Eval
// compiled and ran — the run-time record that the order-exploiting,
// parallel and spilling paths actually fired. Eval resets the counters on
// entry, so a reused Engine reports per-run stats, never an accumulation
// across queries.
type Stats struct {
	SortsElided int // sort nodes compiled away (input already ordered)
	MergeSorts  int // external merge sorts performed
	MergeJoins  int // merge joins chosen over hash joins
	MergeOps    int // merge diff/union/dedup and streaming group operators
	ParallelOps int // operators compiled with a parallel exchange
	Partitions  int // partitions fanned out across those operators

	SpilledOps   int   // operators that exceeded their budget share and spilled
	SpilledBytes int64 // encoded bytes written to spill files this run
	PeakBytes    int64 // peak accounted working-set bytes this run

	VectorOps     int // operators compiled this run; every operator is a batch operator
	VectorBatches int // columnar batches those operators emitted this run

	SegmentsScanned int // store segments read by base scans this run
	SegmentsSkipped int // store segments pruned by the period index this run

	ScanConversions int // scanned relations transposed from tuples to columns this run
}

// Engine is the streaming hash- and merge-based engine. It implements
// eval.Engine and produces the same result list as the reference evaluator
// for every plan; when an input's delivered order allows it (and the Config
// permits), it compiles the cheaper merge/sort-based variant of an operator.
type Engine struct {
	src   eval.Source
	opts  Config
	stats Stats

	// leaf, when set, is what a Rel of the plan compiles to instead of a
	// resolution through src: RunFragment's shard slice, already columnar.
	leaf *source

	// Per-run memory-bounded execution state, set up by Eval when
	// Config.MemoryBudget > 0 and torn down when the run ends.
	mem      *arbiter
	spillMgr *spill.Manager

	// observe, when set, receives every plan node's sample after a
	// successful Eval (eval.NodeObserver), from the run's stages — listed in
	// build order, the root last; timed makes them bracket every pull.
	observe func(algebra.Node, obs.RunSample)
	timed   bool
	stages  []*stage
}

// ObserveNodes implements eval.NodeObserver.
func (e *Engine) ObserveNodes(timed bool, fn func(algebra.Node, obs.RunSample)) {
	e.observe, e.timed = fn, timed
}

// batchOf returns r's batch (relation.Columns): a relation this engine (or
// another) drained, or a store loaded, is columnar-primary and scans as it
// is; a tuple list converts once, and the image caches on the relation, so
// the transposition amortizes across every engine and query scanning it.
func (e *Engine) batchOf(r *relation.Relation) *column.Batch {
	b, converted := r.Columns()
	if converted {
		e.stats.ScanConversions++
	}
	return b
}

// New returns an engine over src with every physical variant enabled.
func New(src eval.Source) *Engine { return &Engine{src: src} }

// NewWith returns an engine over src configured by opts.
func NewWith(src eval.Source, opts Config) *Engine {
	return &Engine{src: src, opts: opts}
}

// Stats reports the physical-variant counters of the most recent Eval.
func (e *Engine) Stats() Stats { return e.stats }

// Close releases any spill state left behind by an interrupted run. Eval
// removes its spill files on every path — success, error, panic — so Close
// is idempotent insurance for holders that cache engines; it is always safe
// to call, budgeted or not.
func (e *Engine) Close() error {
	if e.spillMgr != nil {
		mgr := e.spillMgr
		e.spillMgr = nil
		return mgr.Cleanup()
	}
	return nil
}

// memString renders a byte count compactly for engine names ("64K", "16M",
// "1G", or plain bytes when not a whole unit).
func memString(b int64) string {
	switch {
	case b >= 1<<30 && b%(1<<30) == 0:
		return fmt.Sprintf("%dG", b>>30)
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dM", b>>20)
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%dK", b>>10)
	default:
		return fmt.Sprintf("%d", b)
	}
}

// Eval evaluates the tree rooted at n by building its batch pipeline and
// draining the root. The result's Order() carries the Table 1 guarantee.
// Stats are reset on entry and describe this run alone. Under a memory
// budget the run's spill files live in a fresh temp directory that is
// removed before Eval returns, on the success and error paths alike.
func (e *Engine) Eval(n algebra.Node) (*relation.Relation, error) {
	r, err := e.eval(n)
	if err != nil || e.observe == nil {
		return r, err
	}
	// The root's subtree is the whole run: its spill counts are the run's
	// totals, known here even when no stage was timed.
	root := e.stages[len(e.stages)-1]
	root.SpilledBytes, root.SpilledOps = e.stats.SpilledBytes, int64(e.stats.SpilledOps)
	root.PeakBytes = e.stats.PeakBytes
	for _, st := range e.stages {
		e.observe(st.node, st.RunSample)
	}
	return r, nil
}

// eval is Eval's body up to the result.
func (e *Engine) eval(n algebra.Node) (*relation.Relation, error) {
	e.stats = Stats{}
	e.stages = e.stages[:0]
	if e.opts.MemoryBudget > 0 {
		e.mem = &arbiter{}
		e.spillMgr = spill.NewManager(e.opts.SpillDir)
		defer func() {
			e.stats.SpilledBytes = e.spilledBytes()
			e.stats.PeakBytes = e.mem.peakBytes()
			e.Close()
			e.mem = nil
		}()
	}
	if rel, ok := n.(*algebra.Rel); ok && e.leaf == nil {
		return e.scanList(rel)
	}
	s, err := e.build(n)
	if err != nil {
		return nil, err
	}
	return drainVec(s)
}

// source is one built pipeline stage: its batch stream plus the static
// knowledge the parent stages and the root need — the output schema and the
// order the stage delivers. A scan delivers its declared or stored order;
// every other stage's order is set once, by compile, from props.OrderOf —
// the label the reference evaluator gives the same list. The stream has
// exactly one consumer: the parent operator, or drainVec at the root.
type source struct {
	vec    vecIterator
	schema *schema.Schema
	order  relation.OrderSpec
}

// stage is the pass-through an observed run puts around every plan node's
// source: the node's batch stream runs through it, counting the rows and
// batches the node produced. A timed observer also brackets every pull
// with a reading of the clock and of the run's spill counters, which makes
// Wall, SpilledBytes and SpilledOps subtree totals (children are pulled
// inside the node's own pulls and nowhere else). Only the node's one
// consumer pulls a stage, on the goroutine driving the pipeline; worker
// pools run below the operators. A run nobody observes compiles no stages.
type stage struct {
	obs.RunSample
	e    *Engine
	node algebra.Node
	in   *source // the node's own source
	out  source  // what the parent sees: in's stream routed through the stage
}

// spilledBytes reads the run's spill-bytes counter; zero without a budget.
func (e *Engine) spilledBytes() int64 {
	if e.spillMgr == nil {
		return 0
	}
	return e.spillMgr.BytesWritten()
}

// nextBatch runs one pull of the wrapped source; a timed run adds the pull's
// wall time and the movement of the run's spill counters to the sample.
func (st *stage) nextBatch() (*column.Batch, error) {
	e := st.e
	var start time.Time
	var ops int
	var bytes int64
	if e.timed {
		start, ops, bytes = time.Now(), e.stats.SpilledOps, e.spilledBytes()
	}
	b, err := st.in.vec.nextBatch()
	if e.timed {
		st.Wall += time.Since(start)
		st.SpilledOps += int64(e.stats.SpilledOps - ops)
		st.SpilledBytes += e.spilledBytes() - bytes
	}
	if b != nil {
		st.Rows += int64(b.Rows())
		st.Batches++
	}
	return b, err
}

func (st *stage) close() error { return st.in.vec.close() }

// observed wraps a compiled node in its stage.
func (e *Engine) observed(n algebra.Node, in *source) *source {
	st := &stage{e: e, node: n, in: in}
	st.out = source{vec: st, schema: in.schema, order: in.order}
	e.stages = append(e.stages, st)
	return &st.out
}

// build compiles a logical node into a physical pipeline stage, wrapped in
// its counting stage when the run is observed.
func (e *Engine) build(n algebra.Node) (*source, error) {
	s, err := e.compile(n)
	if err != nil || e.observe == nil {
		return s, err
	}
	return e.observed(n, s), nil
}

// compile builds a node's physical operator. A base relation compiles to
// its scan, or to RunFragment's shard slice. Any other node builds its
// children through build, derives its schema, hands both to its operator's
// builder and sets the built stage's Table 1 order — the one place the
// engine orders a stage.
func (e *Engine) compile(n algebra.Node) (*source, error) {
	if rel, ok := n.(*algebra.Rel); ok {
		if e.leaf != nil {
			return e.leaf, nil
		}
		return e.buildRel(rel)
	}
	ch := n.Children()
	var buf [2]*source
	var orders [2]relation.OrderSpec
	in := buf[:len(ch)]
	for i, c := range ch {
		s, err := e.build(c)
		if err != nil {
			return nil, err
		}
		in[i], orders[i] = s, s.order
	}
	out, err := n.Schema()
	if err != nil {
		return nil, err
	}
	s, err := e.operator(n, in, out)
	if err != nil {
		return nil, err
	}
	s.order = props.OrderOf(n, orders[:len(ch)]...)
	return s, nil
}

// operator builds n's physical operator over its built inputs.
func (e *Engine) operator(n algebra.Node, in []*source, out *schema.Schema) (*source, error) {
	switch node := n.(type) {
	case *algebra.Select:
		return e.buildSelect(node, in[0]), nil
	case *algebra.Project:
		return e.buildProject(node, in[0], out), nil
	case *algebra.Aggregate:
		if node.Op() == algebra.OpTAggregate {
			return e.buildTAggregate(node, in[0], out), nil
		}
		return e.buildAggregate(node, in[0], out), nil
	case *algebra.Sort:
		return e.buildSort(node, in[0]), nil
	case *algebra.Join:
		// The join idioms evaluate as their defining expansion with the
		// predicate fused into the product — σ_P(l × r), σ_P(l ×ᵀ r).
		return e.buildProduct(in[0], in[1], out, node.P, node.Op() == algebra.OpTJoin), nil
	}
	switch n.Op() {
	case algebra.OpUnionAll:
		// ⊔: streaming concatenation.
		return vecSource(&vecConcatIter{cur: in[0].vec, rest: in[1].vec}, in[0].schema), nil
	case algebra.OpUnion:
		return e.buildUnion(in[0], in[1]), nil
	case algebra.OpTUnion:
		return e.buildTPair(in[0], in[1], tunionBody), nil
	case algebra.OpProduct:
		return e.buildProduct(in[0], in[1], out, nil, false), nil
	case algebra.OpTProduct:
		return e.buildProduct(in[0], in[1], out, nil, true), nil
	case algebra.OpDiff:
		return e.buildDiff(in[0], in[1], out), nil
	case algebra.OpTDiff:
		return e.buildTPair(in[0], in[1], tdiffBody), nil
	case algebra.OpRdup:
		return e.buildRdup(in[0], out), nil
	case algebra.OpTRdup:
		return e.buildValueGroup(in[0], rdupTBody), nil
	case algebra.OpCoal:
		return e.buildValueGroup(in[0], coalTBody), nil
	case algebra.OpTransferS, algebra.OpTransferD:
		// Transfers are identities on data; their cost and site semantics
		// live in the stratum executor.
		return in[0], nil
	default:
		return nil, fmt.Errorf("exec: unsupported operator %s", n.Op())
	}
}

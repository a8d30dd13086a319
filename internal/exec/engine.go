package exec

import (
	"fmt"
	"time"

	"tqp/internal/algebra"
	"tqp/internal/column"
	"tqp/internal/eval"
	"tqp/internal/obs"
	"tqp/internal/physical"
	"tqp/internal/props"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/spill"
)

// Stats counts the physical variants the engine's most recent Eval
// compiled and ran — the run-time record that the order-exploiting,
// parallel and spilling paths actually fired. The four variant counters
// tally the nodes' physical.Decide decisions exactly as physical.Summarize
// tallies an annotated plan. Eval resets the counters on entry, so a reused
// Engine reports per-run stats, never an accumulation across queries.
type Stats struct {
	SortsElided int // sort nodes compiled away (input already ordered)
	MergeSorts  int // sort nodes physically performed: in-memory permutation or external merge sort
	MergeJoins  int // merge joins chosen over hash joins
	MergeOps    int // merge diff/union, adjacent-compare dedup and grouping over contiguous groups
	ParallelOps int // operators compiled with a parallel exchange
	Partitions  int // partitions fanned out across those operators

	// Spill counts the operators that exceeded their budget share and
	// spilled, the bytes and pass files they wrote, and the run's peak
	// accounted working set.
	obs.Spill
}

// Engine is the streaming hash- and merge-based engine. It implements
// eval.Engine and produces the same result list as the reference evaluator
// for every plan; it compiles, per node, the variant physical.Decide picks
// for the inputs' delivered orders and the engine's shape — the cheaper
// merge/sort-based one wherever the order allows it.
type Engine struct {
	src   eval.Source
	opts  Config
	shape physical.Shape
	stats Stats

	// Per-run memory-bounded execution state, set up by Eval when
	// Config.MemoryBudget > 0 and torn down when the run ends.
	mem      *arbiter
	spillMgr *spill.Manager

	// observe, when set, receives every plan node's sample after a
	// successful Eval (eval.NodeObserver), from the run's stages — listed in
	// build order, the root last; timed makes them bracket every pull.
	observe func(algebra.Node, physical.Variant, obs.RunSample)
	timed   bool
	stages  []*stage
}

// ObserveNodes implements eval.NodeObserver.
func (e *Engine) ObserveNodes(timed bool, fn func(algebra.Node, physical.Variant, obs.RunSample)) {
	e.observe, e.timed = fn, timed
}

// New returns the sequential unbudgeted engine over src.
func New(src eval.Source) *Engine { return &Engine{src: src} }

// NewWith returns an engine over src configured by opts.
func NewWith(src eval.Source, opts Config) *Engine {
	return &Engine{src: src, opts: opts, shape: physical.ShapeOf(opts.Parallelism, opts.MemoryBudget)}
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
// budget the run's spill pass files live in Config.SpillDir, and every one
// is removed before Eval returns, on the success and error paths alike.
func (e *Engine) Eval(n algebra.Node) (*relation.Relation, error) {
	r, err := e.eval(n)
	if err != nil || e.observe == nil {
		return r, err
	}
	// The root's subtree is the whole run: its spill counts are the run's
	// totals, known here even when no stage was timed.
	e.stages[len(e.stages)-1].Spill = e.stats.Spill
	for _, st := range e.stages {
		e.observe(st.node, st.dec, st.RunSample)
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
			e.stats.Spill = e.spilled()
			e.stats.PeakBytes = e.mem.peakBytes()
			e.Close()
			e.mem = nil
		}()
	}
	if rel, ok := n.(*algebra.Rel); ok {
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
// state the stage delivers: its order, the label the reference evaluator
// gives the same list, and Table 1's duplicate and coalescing claims,
// which physical.Decide reads. A scan delivers its relation's declared
// claims and its declared or stored order; every other stage's state is set
// once, by compile, from props.StateAt. The stream has exactly one
// consumer: the parent operator, or drainVec at the root.
type source struct {
	vec    vecIterator
	schema *schema.Schema
	state  props.State
}

// stage is the pass-through an observed run puts around every plan node's
// source: the node's batch stream runs through it, counting the rows and
// batches the node produced. A timed observer also brackets every pull
// with a reading of the clock and of the run's spill counters, which makes
// Wall and the Spill counts subtree totals (children are pulled inside the
// node's own pulls and nowhere else). Only the node's one
// consumer pulls a stage, on the goroutine driving the pipeline; worker
// pools run below the operators. A run nobody observes compiles no stages.
type stage struct {
	obs.RunSample
	e    *Engine
	node algebra.Node
	dec  physical.Variant // the variant the node compiled
	in   *source          // the node's own source
	out  source           // what the parent sees: in's stream routed through the stage
}

// spilled reads the run's spill counters so far — operators, bytes and
// pass files, no peak; zero without a budget.
func (e *Engine) spilled() obs.Spill {
	s := obs.Spill{SpilledOps: e.stats.SpilledOps}
	if e.spillMgr != nil {
		s.SpilledBytes, s.SpillFiles = e.spillMgr.BytesWritten(), e.spillMgr.FilesCreated()
	}
	return s
}

// nextBatch runs one pull of the wrapped source; a timed run adds the pull's
// wall time and the movement of the run's spill counters to the sample.
func (st *stage) nextBatch() (*column.Batch, error) {
	e := st.e
	var start time.Time
	var before obs.Spill
	if e.timed {
		start, before = time.Now(), e.spilled()
	}
	b, err := st.in.vec.nextBatch()
	if e.timed {
		st.Wall += time.Since(start)
		st.Spill.Add(e.spilled().Less(before))
	}
	if b != nil {
		st.Rows += int64(b.Rows())
		st.Batches++
	}
	if heapProbe != nil {
		heapProbe()
	}
	return b, err
}

// heapProbe, set only by the package's tests, is called after every batch
// an observed run pulls through a stage and after every partition the
// exchange driver runs — where the budget tests sample the live heap.
var heapProbe func()

func (st *stage) close() error { return st.in.vec.close() }

// observed wraps a compiled node in its stage.
func (e *Engine) observed(n algebra.Node, d physical.Variant, in *source) *source {
	st := &stage{e: e, node: n, dec: d, in: in}
	st.out = source{vec: st, schema: in.schema, state: in.state}
	e.stages = append(e.stages, st)
	return &st.out
}

// build compiles a logical node into a physical pipeline stage, wrapped in
// its counting stage when the run is observed.
func (e *Engine) build(n algebra.Node) (*source, error) {
	s, d, err := e.compile(n)
	if err != nil || e.observe == nil {
		return s, err
	}
	return e.observed(n, d.Variant, s), nil
}

// compile builds a node's physical operator. A base relation compiles to
// its scan. Any other node builds its children through build, derives its
// schema, takes its variant from physical.Decide over the children's
// delivered states and the engine's shape — the one place the engine
// chooses one — hands all three to its operator's builder and sets the
// built stage's Table 1 state — the one place the engine orders a stage.
func (e *Engine) compile(n algebra.Node) (*source, physical.Decision, error) {
	if rel, ok := n.(*algebra.Rel); ok {
		s, err := e.buildRel(rel)
		return s, physical.Decision{}, err
	}
	ch := n.Children()
	var buf [2]*source
	var stBuf [2]props.State
	in, states := buf[:len(ch)], stBuf[:len(ch)]
	for i, c := range ch {
		s, err := e.build(c)
		if err != nil {
			return nil, physical.Decision{}, err
		}
		in[i], states[i] = s, s.state
	}
	st, err := props.StateAt(n, props.Stratum, states)
	if err != nil {
		return nil, physical.Decision{}, err
	}
	d := physical.Decide(n, states, e.shape)
	e.count(d.Variant)
	s, err := e.operator(n, d, in, st.Schema)
	if err != nil {
		return nil, physical.Decision{}, err
	}
	s.state = st
	return s, d, nil
}

// count records a compiled decision in the variant counters, as
// physical.Summarize tallies an annotated plan.
func (e *Engine) count(d physical.Variant) {
	switch {
	case d.SortElided:
		e.stats.SortsElided++
	case d.Algo == physical.AlgoSort:
		e.stats.MergeSorts++
	case d.Algo == physical.AlgoMergeJoin:
		e.stats.MergeJoins++
	case d.Merge:
		e.stats.MergeOps++
	}
}

// operator builds n's physical operator, the variant d, over its built
// inputs.
func (e *Engine) operator(n algebra.Node, d physical.Decision, in []*source, out *schema.Schema) (*source, error) {
	switch node := n.(type) {
	case *algebra.Select:
		return e.buildSelect(node, in[0]), nil
	case *algebra.Project:
		return e.buildProject(node, in[0], out), nil
	case *algebra.Aggregate:
		if node.Op() == algebra.OpTAggregate {
			return e.buildTAggregate(node, d, in[0], out), nil
		}
		return e.buildAggregate(node, d, in[0], out), nil
	case *algebra.Sort:
		return e.buildSort(node, d, in[0]), nil
	case *algebra.Join:
		// The join idioms evaluate as their defining expansion with the
		// predicate fused into the product — σ_P(l × r), σ_P(l ×ᵀ r).
		return e.buildProduct(d, in[0], in[1], out, node.Op() == algebra.OpTJoin), nil
	}
	switch n.Op() {
	case algebra.OpUnionAll:
		// ⊔: streaming concatenation.
		return vecSource(&vecConcatIter{cur: in[0].vec, rest: in[1].vec}, in[0].schema), nil
	case algebra.OpUnion:
		return e.buildUnion(d, in[0], in[1]), nil
	case algebra.OpTUnion:
		return e.buildTPair(d, in[0], in[1], excessBody), nil
	case algebra.OpProduct:
		return e.buildProduct(d, in[0], in[1], out, false), nil
	case algebra.OpTProduct:
		return e.buildProduct(d, in[0], in[1], out, true), nil
	case algebra.OpDiff:
		return e.buildDiff(d, in[0], in[1], out), nil
	case algebra.OpTDiff:
		if d.Algo == physical.AlgoMinusUnion {
			return e.buildTPair(d, in[0], in[1], minusUnionBody), nil
		}
		return e.buildTPair(d, in[0], in[1], sweepDiffBody), nil
	case algebra.OpRdup:
		return e.buildRdup(d, in[0], out), nil
	case algebra.OpTRdup:
		return e.buildValueGroup(d, in[0], rdupTBody), nil
	case algebra.OpCoal:
		return e.buildValueGroup(d, in[0], coalTBody), nil
	case algebra.OpTransferS, algebra.OpTransferD:
		// Transfers are identities on data; their cost and site semantics
		// live in the stratum executor.
		return in[0], nil
	default:
		return nil, fmt.Errorf("exec: unsupported operator %s", n.Op())
	}
}

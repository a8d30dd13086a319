// Package cost implements the cost model the paper defers to future work
// ("integrating the provided transformation rules with heuristics and cost
// estimation techniques"): cardinality estimation grounded in Table 1's
// cardinality column plus catalog statistics, per-operation cost functions,
// and the stratum/DBMS asymmetry of the layered architecture — the DBMS
// executes conventional operations faster and "sorts faster than the
// stratum" (Section 2.1), while complex temporal operations are "often not
// processed efficiently in conventional DBMSs"; transfers pay a per-tuple
// price.
package cost

import (
	"math"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/eval"
	"tqp/internal/physical"
	"tqp/internal/props"
	"tqp/internal/relation"
)

// Params weight the cost model.
type Params struct {
	// StratumTuple is the per-tuple processing cost in the stratum.
	StratumTuple float64
	// DBMSTuple is the per-tuple processing cost of conventional
	// operations in the DBMS (a mature executor: cheaper).
	DBMSTuple float64
	// DBMSSortFactor scales sorting inside the DBMS relative to a stratum
	// sort ("the DBMS sorts faster than the stratum").
	DBMSSortFactor float64
	// DBMSTemporalPenalty multiplies temporal operations executed in the
	// DBMS, which must be expressed as complex self-join SQL.
	DBMSTemporalPenalty float64
	// TransferTuple is the per-tuple cost of a TS/TD transfer.
	TransferTuple float64
	// DefaultSelectivity estimates σ when nothing better is known.
	DefaultSelectivity float64
	// HashTuple is the per-tuple cost of a hash-table build or probe in the
	// exec engine's hash operators (hash join, hash rdup, value-group
	// partitioning). It is charged on top of StratumTuple for the tuples a
	// streaming operator hashes.
	HashTuple float64
	// MergeTuple is the per-tuple cost of the adjacent-comparison merge
	// pass that replaces hashing when a streaming operator's inputs already
	// deliver the order its groups or keys need (merge join, merge
	// diff/union, sorted dedup, group-at-a-time temporal operators). It is
	// cheaper than HashTuple: a comparison against the previous tuple
	// instead of a hash-table build and probe.
	MergeTuple float64
	// SortVerifyFactor prices an elided sort — one whose input already
	// delivers an order the requested spec is a prefix of — as a fraction
	// of a linear pass instead of N·log N work. The stratum meter uses the
	// same factor, so recalibration keeps model and trace consistent.
	SortVerifyFactor float64
	// MergeUnitsFactor scales the stratum meter's simulated units for a
	// streaming operator compiled as its merge variant, relative to the
	// hash variant's linear shape (the estimate-side counterpart is
	// MergeTuple replacing HashTuple).
	MergeUnitsFactor float64
	// Streaming declares that the stratum runs the exec engine: products
	// and joins cost build+probe+output instead of pairwise work, and the
	// temporal grouping operators drop their scan factors (see OpUnits).
	// The exec engine is columnar: its exchanges route row positions over
	// shared column planes instead of copying tuples, and its budgeted
	// operators encode spill blocks straight off the planes, so the
	// per-tuple exchange/gather and spill prices of the batch-compiled
	// operators scale by VecExchangeFactor and VecSpillFactor.
	Streaming bool
	// OrderBlind disables delivered-order reasoning: every operator is
	// priced as if its inputs were unordered, exactly the PR 1 model. Used
	// for the tqplan order-aware/order-blind comparison and by
	// TestOrderAwareBelowBlind, which pins aware strictly below blind.
	OrderBlind bool
	// Parallelism is the worker count of the morsel-parallel exec engine
	// (exec.Config.Parallelism); 0 or 1 prices sequential execution. With
	// W > 1 every partitionable operator's own work divides by W while each
	// input tuple pays ExchangeTuple and each output tuple GatherTuple — the
	// Amdahl shape of partition + work + deterministic merge.
	Parallelism int
	// ExchangeTuple is the per-tuple cost of routing a tuple through a
	// parallel exchange (a partition hash or segment lookup plus a copy
	// into the partition stream).
	ExchangeTuple float64
	// GatherTuple is the per-tuple cost of the deterministic ordered gather
	// (one k-way merge step by sequence key and partition index).
	GatherTuple float64
	// MemoryBudget is the exec engine's working-set bound in bytes; 0 means
	// unlimited. When an operator's estimated materialized state exceeds
	// the per-worker budget share, the model adds the grace-hash spill
	// shape: every input tuple pays one SpillWrite and one SpillRead. This
	// is what lets the beam trade an explicit sort (whose streaming variant
	// never materializes) against a spilling hash operator.
	MemoryBudget int64
	// SpillWrite is the per-tuple cost of encoding and writing one tuple to
	// a spill partition.
	SpillWrite float64
	// SpillRead is the per-tuple cost of reading and decoding one spilled
	// tuple back.
	SpillRead float64
	// TupleBytes estimates the resident bytes of one tuple, converting
	// cardinality estimates into working-set bytes for the spill decision.
	TupleBytes float64
	// VecExchangeFactor scales ExchangeTuple and GatherTuple for a
	// Streaming engine: the scatter is a hash over column planes plus one
	// appended row index, and the gather merges ascending selection
	// vectors — no tuple copy on either side.
	VecExchangeFactor float64
	// VecSpillFactor scales SpillWrite and SpillRead for a Streaming
	// engine: the block codec reads cells off the planes on the way out and
	// decodes block-at-a-time into batches on the way back, skipping the
	// per-tuple materialization of the boxed path.
	VecSpillFactor float64
	// Shards prices coordinated scale-out execution: with N > 1 shards the
	// DBMS-site work of a plan — the pushed-down scan/filter/sort chains —
	// runs on all shards concurrently, so each DBMS operation's own cost
	// divides by N, while every tuple crossing a transfer additionally
	// pays ShipTuple for the wire hop and the coordinator's deterministic
	// merge step. 0 or 1 prices single-node execution.
	Shards int
	// ShipTuple is the per-tuple cost of shipping one shard-result row to
	// the coordinator and routing it through the k-way gather merge.
	ShipTuple float64
	// SegmentRead is the per-segment cost of a disk-backed base scan: one
	// store segment's worth of block reads, CRC checks and decoding. A
	// time-travel scan pays it only for segments surviving the period
	// index's fence pruning, which is what makes an indexed scan of a
	// narrow period cheaper than a full scan of the same relation.
	// In-memory relations have no segments and price scans at zero, as
	// before.
	SegmentRead float64
}

// DefaultParams returns the calibration used by the experiments, matching
// the reference evaluator's operator shapes in the stratum.
func DefaultParams() Params {
	return Params{
		StratumTuple:        1.0,
		DBMSTuple:           0.4,
		DBMSSortFactor:      0.25,
		DBMSTemporalPenalty: 20.0,
		TransferTuple:       2.0,
		DefaultSelectivity:  1.0 / 3,
		HashTuple:           0.5,
		MergeTuple:          0.1,
		SortVerifyFactor:    0.25,
		MergeUnitsFactor:    0.5,
		ExchangeTuple:       0.2,
		GatherTuple:         0.05,
		SpillWrite:          0.8,
		SpillRead:           0.6,
		TupleBytes:          192,
		VecExchangeFactor:   0.4,
		VecSpillFactor:      0.6,
		ShipTuple:           0.5,
		SegmentRead:         32.0,
	}
}

// partitionedOp reports that the exec engine fans op out through a parallel
// exchange when Config.Parallelism > 1 (see exec/parallel.go); the
// pipelined operators (σ, π, ⊔) and transfers stay sequential.
func partitionedOp(op algebra.Op) bool {
	switch op {
	case algebra.OpSort, algebra.OpProduct, algebra.OpTProduct, algebra.OpJoin, algebra.OpTJoin,
		algebra.OpRdup, algebra.OpDiff, algebra.OpUnion, algebra.OpAggregate,
		algebra.OpTRdup, algebra.OpCoal, algebra.OpTDiff, algebra.OpTUnion, algebra.OpTAggregate:
		return true
	}
	return false
}

// vecBatchOp reports the operators whose parallel exchanges and grace
// spills are priced with the batch discount: the hash family — dedup, the
// diff/union budgets, and the keyed joins. The sort, the temporal group
// family and the keyless products keep the boxed exchange and spill prices
// they were calibrated with (the engine runs them on batches too, but a
// sort-family discount once steered the optimizer onto plans whose layered
// execution lost the DBMS's order determinism, and the plan fingerprints
// are pinned to this calibration).
func vecBatchOp(op algebra.Op) bool {
	switch op {
	case algebra.OpRdup, algebra.OpDiff, algebra.OpUnion, algebra.OpJoin, algebra.OpTJoin:
		return true
	}
	return false
}

// parallelShape reprices one partitioned operator's own cost for a W-way
// parallel engine: the per-partition work is the sequential work divided
// across the workers, every input tuple pays the exchange routing, and
// every output tuple one gather-merge step.
// The exec engine's exchange scatters batch views (a hash plus a row
// index per tuple, no copy), so the routing and gather prices of the
// batch-compiled operators scale by VecExchangeFactor.
func (p Params) parallelShape(op algebra.Op, own, inRows, outRows float64) float64 {
	if p.Parallelism <= 1 {
		return own
	}
	ex, ga := p.ExchangeTuple, p.GatherTuple
	if p.Streaming && vecBatchOp(op) {
		ex *= p.VecExchangeFactor
		ga *= p.VecExchangeFactor
	}
	return own/float64(p.Parallelism) + inRows*ex + outRows*ga
}

// spillShape adds the grace-hash spill charge when an operator's estimated
// materialized state — inRows tuples at TupleBytes each — exceeds the
// per-worker budget share the engine compares operator state against
// (exec's opShare): one spill write and one read per input tuple
// (recursive re-partitioning passes are rare and left unpriced).
// The exec engine encodes spill blocks straight off the column planes
// and re-reads them block-at-a-time into batches, so the per-tuple spill
// prices of the batch-compiled operators scale by VecSpillFactor.
func (p Params) spillShape(op algebra.Op, own, inRows float64) float64 {
	share := float64(p.MemoryBudget) / float64(max(p.Parallelism, 1))
	if p.MemoryBudget <= 0 || inRows*p.TupleBytes <= share {
		return own
	}
	wr, rd := p.SpillWrite, p.SpillRead
	if p.Streaming && vecBatchOp(op) {
		wr *= p.VecSpillFactor
		rd *= p.VecSpillFactor
	}
	return own + inRows*(wr+rd)
}

// spillExempt reports the compilations whose budgeted state is bounded
// without partitioning, so no spill charge applies however large the
// input: the streaming group-at-a-time merge family, which the budgeted
// engine prefers whenever the delivered order proves groups contiguous.
// The two-sided merge variants (diff/union/join) still materialize a side,
// so the budgeted engine graces them and they stay priced.
func spillExempt(op algebra.Op, ordered bool) bool {
	if !ordered {
		return false
	}
	switch op {
	case algebra.OpRdup, algebra.OpAggregate, algebra.OpTRdup, algebra.OpCoal, algebra.OpTAggregate:
		return true
	}
	return false
}

// ParamsFor returns the calibration for a stratum engine: the default
// reference shapes, or the streaming shapes of the exec engine.
func ParamsFor(streaming bool) Params {
	p := DefaultParams()
	p.Streaming = streaming
	return p
}

// ForEngine is the calibration for a physical engine: its operator shapes
// (ParamsFor), order-exploiting variants priced only for engines that
// compile them (spec.OrderAware), partitioned operators priced at the
// engine's fan-out width, and spilling against its memory budget — so the
// model and the stratum's meter price what the engine actually pays.
func ForEngine(spec eval.EngineSpec) Params {
	p := ParamsFor(spec.Streaming)
	p.OrderBlind = !spec.OrderAware
	p.Parallelism = spec.Parallelism
	p.MemoryBudget = spec.MemoryBudget
	return p
}

// OpUnits assigns simulated work units to operation n over the given input
// cardinality; the stratum executor meters actual executions with it.
// streaming selects the exec engine's hash/one-pass shapes — linear
// products, joins and temporal grouping operators — over the reference
// evaluator's pairwise and scan-heavy ones. ordered reports that the
// streaming engine compiled the order-exploiting variant at this node (an
// elided sort, a merge join, or a contiguous-group merge pass), so the
// metered work drops accordingly — an elided sort is a verify pass
// (SortVerifyFactor), a merge pass scales the hash variant's per-tuple work
// by MergeUnitsFactor. The factors come from the calibration so model and
// meter recalibrate together. The reference evaluator (streaming=false) has
// no such variants, so ordered is ignored. With Parallelism > 1 the
// partitioned operators additionally take the parallel shape (per-partition
// work plus exchange and gather, with the input cardinality standing in for
// the output's, which the meter does not know) — except a GROUP-BY-less
// aggregate, one global group the engine leaves on its sequential path
// (mirroring the estimator's parallelApplies).
func (p Params) OpUnits(n algebra.Node, rows int, tupleCost, penalty float64, streaming, ordered bool) float64 {
	op := n.Op()
	units := p.opUnitsSequential(op, rows, tupleCost, penalty, streaming, ordered)
	if agg, ok := n.(*algebra.Aggregate); ok && len(agg.GroupBy) == 0 {
		return units
	}
	// An ordered sort is an elided sort — a compiled-away no-op with no
	// exchange to meter and no state to spill. Ordered grouping operators
	// keep both shapes: they still fan out (range exchange) and, budgeted,
	// their materializing variants still partition to disk.
	if streaming && partitionedOp(op) && !(op == algebra.OpSort && ordered) {
		units = p.parallelShape(op, units, float64(rows), float64(rows))
		if !spillExempt(op, ordered) {
			units = p.spillShape(op, units, float64(rows))
		}
	}
	return units
}

func (p Params) opUnitsSequential(op algebra.Op, rows int, tupleCost, penalty float64, streaming, ordered bool) float64 {
	r := float64(rows)
	logR := 1.0
	if r >= 2 {
		logR = math.Log2(r)
	}
	ordered = ordered && streaming
	switch op {
	case algebra.OpSort:
		if ordered {
			return r * tupleCost * penalty * p.SortVerifyFactor
		}
		return r * logR * tupleCost * penalty
	case algebra.OpProduct, algebra.OpTProduct, algebra.OpJoin, algebra.OpTJoin:
		if streaming {
			units := r * tupleCost * penalty
			if ordered {
				units *= p.MergeUnitsFactor
			}
			return units
		}
		return r * r * tupleCost * penalty / 4
	case algebra.OpTDiff, algebra.OpTRdup, algebra.OpTAggregate, algebra.OpTUnion, algebra.OpCoal:
		if streaming {
			units := r * tupleCost * penalty
			if ordered {
				units *= p.MergeUnitsFactor
			}
			return units
		}
		return r * logR * tupleCost * penalty * 2
	case algebra.OpTransferS, algebra.OpTransferD:
		return 0
	default:
		if ordered {
			return r * tupleCost * penalty * p.MergeUnitsFactor
		}
		return r * tupleCost * penalty
	}
}

// Estimate is the per-node outcome: estimated result rows and the
// cumulative cost of producing them.
type Estimate struct {
	Rows float64
	Cost float64
}

// Estimates maps plan nodes to their estimates.
type Estimates map[algebra.Node]Estimate

// Model estimates plans against a catalog's statistics.
type Model struct {
	params Params
	cat    *catalog.Catalog
}

// New returns a model over the catalog with the given parameters.
func New(cat *catalog.Catalog, params Params) *Model {
	return &Model{params: params, cat: cat}
}

// Plan estimates every node of the plan; the root's Estimate carries the
// total plan cost.
func (m *Model) Plan(plan algebra.Node) (Estimates, error) {
	states := props.NewMemo()
	memo := make(map[props.Sited]Estimate)
	if _, err := m.node(plan, props.Stratum, states, memo); err != nil {
		return nil, err
	}
	st, err := states.States(plan)
	if err != nil {
		return nil, err
	}
	es := make(Estimates, len(st))
	for n, s := range st {
		es[n] = memo[props.Sited{Node: n, Site: s.Site}]
	}
	return es, nil
}

// Cost returns the total estimated cost of the plan.
func (m *Model) Cost(plan algebra.Node) (float64, error) {
	return m.Scorer()(plan, props.NewMemo())
}

// Scorer returns a cost function for the plans of one optimization, which
// derive their states through the optimization's states memo. An estimate,
// like a state, is a pure function of the node's subtree and site, so the
// scorer memoizes each (subtree, site) estimate: a plan rewritten along one
// path is priced along that path only, at exactly the cost Cost reports.
func (m *Model) Scorer() func(plan algebra.Node, states *props.Memo) (float64, error) {
	memo := make(map[props.Sited]Estimate)
	return func(plan algebra.Node, states *props.Memo) (float64, error) {
		e, err := m.node(plan, props.Stratum, states, memo)
		return e.Cost, err
	}
}

func (m *Model) node(n algebra.Node, site props.Site, states *props.Memo, memo map[props.Sited]Estimate) (Estimate, error) {
	if e, ok := memo[props.Sited{Node: n, Site: site}]; ok {
		return e, nil
	}
	if _, err := states.State(n, site); err != nil {
		return Estimate{}, err
	}
	ch := n.Children()
	var ceBuf [2]Estimate
	var orderBuf [2]relation.OrderSpec
	ce, orders := ceBuf[:len(ch)], orderBuf[:len(ch)]
	for i, c := range ch {
		cs := props.ChildSite(site, n.Op())
		e, err := m.node(c, cs, states, memo)
		if err != nil {
			return Estimate{}, err
		}
		s, _ := states.State(c, cs) // derived without error by m.node
		ce[i], orders[i] = e, s.Order
	}
	e := m.estimate(n, site, ce, orders)
	for _, c := range ce {
		e.Cost += c.Cost
	}
	memo[props.Sited{Node: n, Site: site}] = e
	return e, nil
}

// estimate derives one node's output cardinality (Table 1's cardinality
// column used as an estimator) and its own processing cost. With the
// streaming engine and OrderBlind unset the cost is order-conditional: the
// children's statically inferred orders (Table 1 propagation) are run
// through the same physical decision procedure the engine compiles with
// (package physical), and the merge/elided variants are priced with
// MergeTuple/SortVerifyFactor instead of HashTuple and N·log N. With
// Parallelism > 1 every partitioned operator then takes the parallel shape:
// per-partition work plus an exchange charge on the input rows and a gather
// charge on the output rows.
func (m *Model) estimate(n algebra.Node, site props.Site, ce []Estimate, orders []relation.OrderSpec) Estimate {
	est := m.estimateOne(n, site, ce, orders)
	p := m.params
	// Scale-out: DBMS-site operations run sharded (each shard works its
	// slice concurrently), transfers additionally pay the wire hop and the
	// coordinator's gather merge per shipped tuple.
	if p.Shards > 1 {
		switch {
		case n.Op() == algebra.OpTransferS || n.Op() == algebra.OpTransferD:
			est.Cost += ce[0].Rows * p.ShipTuple
		case site == props.DBMS:
			est.Cost /= float64(p.Shards)
		}
	}
	// The sequential unbudgeted configuration — the common case, paid per
	// candidate plan by the beam search — takes neither shape; skip the
	// decision work outright.
	if (p.Parallelism > 1 || p.MemoryBudget > 0) && p.Streaming && site != props.DBMS &&
		partitionedOp(n.Op()) && m.parallelApplies(n, orders) {
		in := 0.0
		for _, c := range ce {
			in += c.Rows
		}
		if p.Parallelism > 1 {
			est.Cost = p.parallelShape(n.Op(), est.Cost, in, est.Rows)
		}
		if p.MemoryBudget > 0 {
			ordered := false
			if !p.OrderBlind {
				ordered = physical.Decide(n, orders).Ordered()
			}
			if !spillExempt(n.Op(), ordered) {
				est.Cost = p.spillShape(n.Op(), est.Cost, in)
			}
		}
	}
	return est
}

// parallelApplies mirrors the engine's per-node exchange guards beyond the
// operator kind: an elided sort compiles to nothing (no exchange to price),
// and a GROUP-BY-less aggregate is one global group the engine leaves on
// its sequential path.
func (m *Model) parallelApplies(n algebra.Node, orders []relation.OrderSpec) bool {
	switch node := n.(type) {
	case *algebra.Sort:
		if !m.params.OrderBlind && physical.Decide(n, orders).SortElided {
			return false
		}
	case *algebra.Aggregate:
		return len(node.GroupBy) > 0
	}
	return true
}

func (m *Model) estimateOne(n algebra.Node, site props.Site, ce []Estimate, orders []relation.OrderSpec) Estimate {
	p := m.params
	tuple := p.StratumTuple
	if site == props.DBMS {
		tuple = p.DBMSTuple
	}
	temporalPenalty := 1.0
	if site == props.DBMS && n.Op().Temporal() {
		temporalPenalty = p.DBMSTemporalPenalty
	}
	// The exec engine's hash and merge operators only run in the stratum;
	// DBMS subplans are always priced with the conventional shapes.
	streaming := p.Streaming && site != props.DBMS
	var dec physical.Decision
	if streaming && !p.OrderBlind {
		dec = physical.Decide(n, orders)
	}
	// groupTuple is the per-tuple partitioning cost of a streaming grouping
	// operator: a hash build/probe, or the cheaper adjacent comparison when
	// the input's delivered order keeps the operator's groups contiguous.
	groupTuple := p.HashTuple
	if dec.Merge {
		groupTuple = p.MergeTuple
	}
	logN := func(x float64) float64 {
		if x < 2 {
			return 1
		}
		return math.Log2(x)
	}

	switch n.Op() {
	case algebra.OpRel:
		rows, cst := 32.0, 0.0
		if rel, ok := n.(*algebra.Rel); ok {
			// The catalog's scan estimate understands travel-suffixed names
			// (BASE@asof:t) and counts only the disk segments surviving the
			// period index's fence pruning; in-memory relations report zero
			// segments and keep the historical free scan.
			if est, ok := m.cat.ScanEstimate(rel.Name); ok {
				rows = est.Rows
				cst = float64(est.Segments) * p.SegmentRead
			}
		}
		return Estimate{Rows: rows, Cost: cst}
	case algebra.OpSelect:
		in := ce[0].Rows
		return Estimate{Rows: in * p.DefaultSelectivity, Cost: in * tuple}
	case algebra.OpProject:
		in := ce[0].Rows
		return Estimate{Rows: in, Cost: in * tuple}
	case algebra.OpSort:
		in := ce[0].Rows
		if streaming && dec.SortElided {
			// The engine compiles the sort away; charge a verify pass.
			return Estimate{Rows: in, Cost: in * tuple * p.SortVerifyFactor}
		}
		factor := 1.0
		if site == props.DBMS {
			factor = p.DBMSSortFactor
		}
		return Estimate{Rows: in, Cost: in * logN(in) * tuple * factor}
	case algebra.OpRdup:
		in := ce[0].Rows
		if streaming && dec.Merge {
			// Sorted input: dedup is an adjacent comparison per tuple.
			return Estimate{Rows: math.Max(1, in*0.6), Cost: in * (tuple*0.5 + p.MergeTuple)}
		}
		return Estimate{Rows: math.Max(1, in*0.6), Cost: in * tuple}
	case algebra.OpAggregate:
		in := ce[0].Rows
		if streaming && dec.Merge {
			return Estimate{Rows: math.Max(1, in*0.3), Cost: in * (tuple*0.5 + p.MergeTuple)}
		}
		return Estimate{Rows: math.Max(1, in*0.3), Cost: in * tuple}
	case algebra.OpUnionAll:
		return Estimate{Rows: ce[0].Rows + ce[1].Rows, Cost: (ce[0].Rows + ce[1].Rows) * tuple * 0.25}
	case algebra.OpUnion:
		// Between max(n1,n2) and n1+n2 (Table 1).
		rows := math.Max(ce[0].Rows, ce[1].Rows) + 0.5*math.Min(ce[0].Rows, ce[1].Rows)
		if streaming && dec.Merge {
			return Estimate{Rows: rows, Cost: (ce[0].Rows + ce[1].Rows) * (tuple*0.5 + p.MergeTuple)}
		}
		return Estimate{Rows: rows, Cost: (ce[0].Rows + ce[1].Rows) * tuple}
	case algebra.OpProduct, algebra.OpJoin:
		rows := ce[0].Rows * ce[1].Rows
		if n.Op() == algebra.OpJoin {
			rows *= p.DefaultSelectivity
		}
		if streaming && n.Op() == algebra.OpJoin {
			// Hash join: build + probe + emit, not pairwise work — or, with
			// key-covering input orders, a merge join at MergeTuple per input
			// tuple instead of the hash build/probe.
			return Estimate{Rows: rows, Cost: (ce[0].Rows+ce[1].Rows)*groupTuple + rows*tuple}
		}
		return Estimate{Rows: rows, Cost: ce[0].Rows * ce[1].Rows * tuple}
	case algebra.OpDiff:
		// Between n1−n2 and n1 (Table 1): take the midpoint.
		lo := math.Max(ce[0].Rows-ce[1].Rows, 0)
		rows := (lo + ce[0].Rows) / 2
		if streaming && dec.Merge {
			return Estimate{Rows: rows, Cost: (ce[0].Rows + ce[1].Rows) * (tuple*0.5 + p.MergeTuple)}
		}
		return Estimate{Rows: rows, Cost: (ce[0].Rows + ce[1].Rows) * tuple}
	case algebra.OpTProduct, algebra.OpTJoin:
		// Pairs that overlap in time: a fraction of the full product.
		overlap := 0.3
		rows := ce[0].Rows * ce[1].Rows * overlap
		if n.Op() == algebra.OpTJoin {
			rows *= p.DefaultSelectivity
		}
		if streaming && n.Op() == algebra.OpTJoin {
			return Estimate{Rows: rows, Cost: (ce[0].Rows+ce[1].Rows)*groupTuple + rows*tuple}
		}
		return Estimate{Rows: rows, Cost: ce[0].Rows * ce[1].Rows * tuple * temporalPenalty}
	case algebra.OpTDiff:
		// At most 2·n1 fragments (Table 1).
		n1, n2 := ce[0].Rows, ce[1].Rows
		work := (n1 + n2) * logN(n1+n2)
		if streaming {
			// Hash partition both sides, one pass per value group.
			work = (n1 + n2)
			return Estimate{Rows: math.Min(2*n1, n1*1.25), Cost: (n1+n2)*p.HashTuple + work*tuple}
		}
		return Estimate{Rows: math.Min(2*n1, n1*1.25), Cost: work * tuple * temporalPenalty}
	case algebra.OpTAggregate:
		in := ce[0].Rows
		// At most 2·n−1 constant intervals (Table 1).
		if streaming {
			return Estimate{Rows: math.Max(1, in*1.5), Cost: in*groupTuple + in*2*tuple}
		}
		return Estimate{Rows: math.Max(1, in*1.5), Cost: in * logN(in) * 2 * tuple * temporalPenalty}
	case algebra.OpTRdup:
		in := ce[0].Rows
		// At most 2·n−1 (Table 1); duplicates also disappear.
		if streaming {
			return Estimate{Rows: math.Max(1, in*0.8), Cost: in*groupTuple + in*tuple}
		}
		return Estimate{Rows: math.Max(1, in*0.8), Cost: in * logN(in) * 2 * tuple * temporalPenalty}
	case algebra.OpTUnion:
		n1, n2 := ce[0].Rows, ce[1].Rows
		// At least n1, at most n1+2·n2 (Table 1).
		if streaming {
			return Estimate{Rows: n1 + n2, Cost: (n1+n2)*p.HashTuple + (n1+n2)*tuple}
		}
		return Estimate{Rows: n1 + n2, Cost: (n1 + n2) * logN(n1+n2) * tuple * temporalPenalty}
	case algebra.OpCoal:
		in := ce[0].Rows
		if streaming {
			return Estimate{Rows: math.Max(1, in*0.7), Cost: in*groupTuple + in*tuple}
		}
		return Estimate{Rows: math.Max(1, in*0.7), Cost: in * logN(in) * tuple * temporalPenalty}
	case algebra.OpTransferS, algebra.OpTransferD:
		in := ce[0].Rows
		return Estimate{Rows: in, Cost: in * p.TransferTuple}
	default:
		return Estimate{Rows: ce[0].Rows, Cost: ce[0].Rows * tuple}
	}
}

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

// ParamsFor returns the calibration for a stratum engine: the default
// reference shapes, or the streaming shapes of the exec engine.
func ParamsFor(streaming bool) Params {
	p := DefaultParams()
	p.Streaming = streaming
	return p
}

// ForEngine is the calibration for a physical engine: its operator shapes
// (ParamsFor), partitioned operators priced at the engine's fan-out width,
// and spilling against its memory budget — so the model and the stratum's
// meter price what the engine actually pays.
func ForEngine(spec eval.EngineSpec) Params {
	p := ParamsFor(spec.Streaming)
	p.Parallelism = spec.Parallelism
	p.MemoryBudget = spec.MemoryBudget
	return p
}

// OpUnits assigns simulated work units to operation n over the given input
// cardinality; the stratum executor meters actual executions with it.
// streaming selects the exec engine's hash/one-pass shapes — linear
// products, joins and temporal grouping operators — over the reference
// evaluator's pairwise and scan-heavy ones. dec is the variant the
// streaming engine compiled at this node (package physical): an elided sort
// is a verify pass (SortVerifyFactor), a merge variant scales the hash
// variant's per-tuple work by MergeUnitsFactor — the factors come from the
// calibration so model and meter recalibrate together — and a node with an
// exchange or spillable state takes the parallel shape (per-partition work
// plus exchange and gather, with the input cardinality standing in for the
// output's, which the meter does not know) and the spill shape. The
// reference evaluator (streaming=false) has no variants: its zero decision
// takes neither shape.
func (p Params) OpUnits(n algebra.Node, rows int, tupleCost, penalty float64, streaming bool, dec physical.Variant) float64 {
	op := n.Op()
	units := p.opUnitsSequential(op, rows, tupleCost, penalty, streaming, dec.Merge || dec.SortElided)
	if streaming {
		units = p.shaped(op, dec, units, float64(rows), float64(rows))
	}
	return units
}

// shaped adds the parallel and spill shapes dec calls for to one
// operator's own cost.
func (p Params) shaped(op algebra.Op, dec physical.Variant, own, inRows, outRows float64) float64 {
	if dec.Exchange {
		own = p.parallelShape(op, own, inRows, outRows)
	}
	if dec.Spills {
		own = p.spillShape(op, own, inRows)
	}
	return own
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
	shape  physical.Shape // the engine shape params price
	cat    *catalog.Catalog
}

// New returns a model over the catalog with the given parameters.
func New(cat *catalog.Catalog, params Params) *Model {
	return &Model{params: params, shape: physical.ShapeOf(params.Parallelism, params.MemoryBudget), cat: cat}
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
	// The exec engine's variants only run in the stratum; DBMS subplans
	// are always priced with the conventional shapes.
	var dec physical.Variant
	if m.params.Streaming && site != props.DBMS {
		dec = physical.Decide(n, orders, m.shape).Variant
	}
	e := m.estimate(n, site, ce, dec)
	for _, c := range ce {
		e.Cost += c.Cost
	}
	memo[props.Sited{Node: n, Site: site}] = e
	return e, nil
}

// estimate derives one node's output cardinality (Table 1's cardinality
// column used as an estimator) and its own processing cost. With the
// streaming engine the cost is that of dec, the variant physical.Decide
// picks from the children's statically inferred orders (Table 1
// propagation) and the engine's shape — the decision the engine compiles:
// the merge/elided variants are priced with MergeTuple/SortVerifyFactor
// instead of HashTuple and N·log N, a node with an exchange takes the
// parallel shape (per-partition work plus an exchange charge on the input
// rows and a gather charge on the output rows) and one with spillable
// state the spill shape.
func (m *Model) estimate(n algebra.Node, site props.Site, ce []Estimate, dec physical.Variant) Estimate {
	est := m.estimateOne(n, site, ce, dec)
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
	if dec.Exchange || dec.Spills {
		in := 0.0
		for _, c := range ce {
			in += c.Rows
		}
		est.Cost = p.shaped(n.Op(), dec, est.Cost, in, est.Rows)
	}
	return est
}

func (m *Model) estimateOne(n algebra.Node, site props.Site, ce []Estimate, dec physical.Variant) Estimate {
	p := m.params
	tuple := p.StratumTuple
	if site == props.DBMS {
		tuple = p.DBMSTuple
	}
	temporalPenalty := 1.0
	if site == props.DBMS && n.Op().Temporal() {
		temporalPenalty = p.DBMSTemporalPenalty
	}
	streaming := p.Streaming && site != props.DBMS
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

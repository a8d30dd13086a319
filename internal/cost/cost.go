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
	"tqp/internal/column"
	"tqp/internal/eval"
	"tqp/internal/physical"
	"tqp/internal/props"
	"tqp/internal/relation"
)

// The model's calibration: hand-set weights, one setting each. The paper
// leaves cost estimation to future work, so these are this model's fit, not
// a contract; recalibrating one is a change to this file, and a test pins
// the prices they produce (TestCostGoldens).
const (
	// dbmsTuple is the per-tuple processing cost of conventional operations
	// in the DBMS (a mature executor: cheaper than the stratum's 1).
	dbmsTuple float64 = 0.4
	// dbmsSortFactor scales sorting inside the DBMS relative to a stratum
	// sort ("the DBMS sorts faster than the stratum").
	dbmsSortFactor float64 = 0.25
	// dbmsTemporalPenalty multiplies temporal operations executed in the
	// DBMS, which must be expressed as complex self-join SQL.
	dbmsTemporalPenalty float64 = 20.0
	// transferTuple is the per-tuple cost of a TS/TD transfer.
	transferTuple float64 = 2.0
	// defaultSelectivity estimates σ when nothing better is known.
	defaultSelectivity float64 = 1.0 / 3
	// hashTuple is the per-tuple cost of a hash-table build or probe in the
	// exec engine's hash operators (hash join, hash rdup, value-group
	// partitioning), charged on top of the stratum's per-tuple cost for the
	// tuples a streaming operator hashes.
	hashTuple float64 = 0.5
	// mergeTuple is the per-tuple cost of the adjacent-comparison merge pass
	// that replaces hashing when a streaming operator's inputs already
	// deliver the order its groups or keys need (merge join, merge
	// diff/union, sorted dedup, group-at-a-time temporal operators): a
	// comparison against the previous tuple instead of a hash-table build
	// and probe.
	mergeTuple float64 = 0.1
	// sortVerifyFactor prices an elided sort — one whose input already
	// delivers an order the requested spec is a prefix of — as a fraction of
	// a linear pass instead of N·log N work, in the model and the meter
	// alike.
	sortVerifyFactor float64 = 0.25
	// mergeUnitsFactor scales the meter's units for a streaming operator
	// compiled as its merge variant, relative to the hash variant's linear
	// shape (the estimate-side counterpart is mergeTuple replacing
	// hashTuple).
	mergeUnitsFactor float64 = 0.5
	// exchangeTuple is the per-tuple cost of routing a tuple through a
	// parallel exchange (a partition hash or segment lookup plus a copy into
	// the partition stream).
	exchangeTuple float64 = 0.2
	// gatherTuple is the per-tuple cost of the deterministic ordered gather
	// (one k-way merge step by sequence key and partition index).
	gatherTuple float64 = 0.05
	// spillWrite is the per-tuple cost of encoding and writing one tuple to
	// a spill partition.
	spillWrite float64 = 0.8
	// spillRead is the per-tuple cost of reading and decoding one spilled
	// tuple back.
	spillRead float64 = 0.6
	// vecExchangeFactor scales exchangeTuple and gatherTuple for the
	// batch-compiled operators of a Streaming engine: the scatter is a hash
	// over column planes plus one appended row index, and the gather merges
	// ascending selection vectors — no tuple copy on either side.
	vecExchangeFactor float64 = 0.4
	// vecSpillFactor scales spillWrite and spillRead for the batch-compiled
	// operators of a Streaming engine: the block codec reads cells off the
	// planes on the way out and decodes block-at-a-time into batches on the
	// way back, skipping the per-tuple materialization of the boxed path.
	vecSpillFactor float64 = 0.6
	// shipTuple is the per-tuple cost of shipping one shard-result row to
	// the coordinator and routing it through the k-way gather merge.
	shipTuple float64 = 0.5
	// segmentRead is the per-segment cost of a disk-backed base scan: one
	// store segment's worth of block reads, CRC checks and decoding. A
	// time-travel scan pays it only for segments surviving the period
	// index's fence pruning, which is what makes an indexed scan of a narrow
	// period cheaper than a full scan of the same relation. In-memory
	// relations have no segments and price scans at zero.
	segmentRead float64 = 32.0
)

// Params is the shape the model prices: what the engine and the deployment
// determine, never a weight. The stratum's per-tuple cost is the unit (1);
// every other price is relative to it.
type Params struct {
	// Streaming declares that the stratum runs the exec engine: products
	// and joins cost build+probe+output instead of pairwise work, and the
	// temporal grouping operators drop their scan factors (see opUnits).
	// The exec engine is columnar: its exchanges route row positions over
	// shared column planes instead of copying tuples, and its budgeted
	// operators encode spill blocks straight off the planes, so the
	// per-tuple exchange/gather and spill prices of the batch-compiled
	// operators take the batch discount (batchDiscount).
	Streaming bool
	// Parallelism is the worker count of the morsel-parallel exec engine
	// (exec.Config.Parallelism); 0 or 1 prices sequential execution. With
	// W > 1 every partitionable operator's own work divides by W while each
	// input tuple pays an exchange charge and each output tuple a gather
	// charge — the Amdahl shape of partition + work + deterministic merge.
	Parallelism int
	// MemoryBudget is the exec engine's working-set bound in bytes; 0 means
	// unlimited. When an operator's estimated materialized state exceeds
	// the per-worker budget share, the model adds the grace-hash spill
	// shape: every input tuple pays one spill write and one read. This is
	// what lets the beam trade an explicit sort (whose streaming variant
	// never materializes) against a spilling hash operator.
	MemoryBudget int64
	// Shards prices coordinated scale-out execution: with N > 1 shards the
	// DBMS-site work of a plan — the pushed-down scan/filter/sort chains —
	// runs on all shards concurrently, so each DBMS operation's own cost
	// divides by N, while every tuple crossing a transfer additionally pays
	// the wire hop and the coordinator's deterministic merge step. 0 or 1
	// prices single-node execution.
	Shards int
}

// ForEngine is the model's shape for a physical engine: its operator shapes
// (Streaming), partitioned operators priced at the engine's fan-out width,
// and spilling against its memory budget — so the model and the stratum's
// meter price what the engine actually pays. It prices one node; a
// coordinator sets Shards.
func ForEngine(spec eval.EngineSpec) Params {
	return Params{Streaming: spec.Streaming, Parallelism: spec.Parallelism, MemoryBudget: spec.MemoryBudget}
}

// batchDiscount is the factor on an operator's per-tuple exchange/gather
// prices and the factor on its spill prices. The hash family — dedup, the
// diff/union budgets and the keyed joins — takes the columnar discount on a
// Streaming engine. The sort, the temporal group family and the keyless
// products keep the boxed prices they were calibrated with (the engine runs
// them on batches too, but a sort-family discount once steered the
// optimizer onto plans whose layered execution lost the DBMS's order
// determinism, and the plan fingerprints are pinned to this calibration).
func (p Params) batchDiscount(op algebra.Op) (exchange, spill float64) {
	if p.Streaming {
		switch op {
		case algebra.OpRdup, algebra.OpDiff, algebra.OpUnion, algebra.OpJoin, algebra.OpTJoin:
			return vecExchangeFactor, vecSpillFactor
		}
	}
	return 1, 1
}

// dbmsPenalty is the factor on dbmsTuple for one operation at the DBMS
// site: a sort is cheaper than the stratum's, a temporal operation (complex
// self-join SQL) far dearer, anything else the plain conventional price.
// The model's DBMS estimates and the meter's DBMS units share it.
func dbmsPenalty(op algebra.Op) float64 {
	switch {
	case op == algebra.OpSort:
		return dbmsSortFactor
	case op.Temporal():
		return dbmsTemporalPenalty
	}
	return 1
}

// parallelShape reprices one partitioned operator's own cost for a W-way
// parallel engine: the per-partition work is the sequential work divided
// across the workers, every input tuple pays the exchange routing, and
// every output tuple one gather-merge step, both scaled by the operator's
// exchange discount.
func (p Params) parallelShape(own, inRows, outRows, discount float64) float64 {
	if p.Parallelism <= 1 {
		return own
	}
	ex, ga := exchangeTuple*discount, gatherTuple*discount
	return own/float64(p.Parallelism) + inRows*ex + outRows*ga
}

// spillShape adds the grace-hash spill charge when an operator's estimated
// materialized state — its input rows priced at column.RowBytes of their
// schema, the engine's accounting currency — exceeds what the engine lets
// it hold: the per-worker budget share (exec's opShare), half of it per
// side of a two-sided operator. Then every input tuple pays one spill write
// and one read (recursive re-partitioning passes are rare and left
// unpriced), both scaled by the operator's spill discount.
func (p Params) spillShape(n algebra.Node, own float64, inRows []float64, discount float64) float64 {
	if p.MemoryBudget <= 0 {
		return own
	}
	share := float64(p.MemoryBudget) / float64(max(p.Parallelism, 1)) / float64(max(len(inRows), 1))
	in, over := 0.0, false
	for i, c := range n.Children() {
		if i >= len(inRows) {
			break
		}
		in += inRows[i]
		if s, err := c.Schema(); err == nil && inRows[i]*float64(column.RowBytes(s)) > share {
			over = true
		}
	}
	if !over {
		return own
	}
	wr, rd := spillWrite*discount, spillRead*discount
	return own + in*(wr+rd)
}

// StratumUnits meters one stratum operation the engine ran: simulated work
// units for n over its inputs' actual row counts (one per child). On a
// Streaming engine the shapes are the exec engine's hash/one-pass ones —
// linear products, joins and temporal grouping operators — and dec, the
// variant the engine reports it compiled (package physical), prices as it
// does in the model: an elided sort is a verify pass (sortVerifyFactor), a
// merge variant scales the hash variant's per-tuple work by
// mergeUnitsFactor, and a node with an exchange or spillable state takes
// the parallel shape (per-partition work plus exchange and gather, with the
// input cardinality standing in for the output's, which the meter does not
// know) and the spill shape. The reference evaluator's shapes are pairwise
// and scan-heavy, and it has no variants.
func (p Params) StratumUnits(n algebra.Node, inRows []int, dec physical.Variant) float64 {
	rows := 0
	var buf [2]float64
	sides := buf[:0]
	for _, r := range inRows {
		rows += r
		sides = append(sides, float64(r))
	}
	units := opUnits(n.Op(), rows, 1, 1, p.Streaming, dec.Merge || dec.SortElided)
	if p.Streaming {
		units = p.shaped(n, dec, units, sides, float64(rows))
	}
	return units
}

// DBMSUnits meters a subplan shipped to the DBMS and returns total plus its
// units. Without instrumenting the DBMS's internals each operation is
// charged with the subplan's output cardinality outRows as a proxy; the
// relative penalties (temporal operations dear, sorts cheap) are what the
// experiments exercise. The DBMS simulates a conventional engine, so the
// streaming shapes never apply. Each operation's units are added to the
// running total in turn, so a trace's total does not depend on how its
// subplans group.
func DBMSUnits(total float64, subplan algebra.Node, outRows int) float64 {
	algebra.Walk(subplan, func(n algebra.Node, _ algebra.Path) bool {
		if n.Op() != algebra.OpRel {
			total += opUnits(n.Op(), outRows, dbmsTuple, dbmsPenalty(n.Op()), false, false)
		}
		return true
	})
	return total
}

// TransferUnits meters rows crossing the stratum/DBMS boundary.
func TransferUnits(rows int) float64 { return float64(rows) * transferTuple }

// shaped adds the parallel and spill shapes dec calls for to one
// operator's own cost, given the row counts of its inputs.
func (p Params) shaped(n algebra.Node, dec physical.Variant, own float64, inRows []float64, outRows float64) float64 {
	in := 0.0
	for _, r := range inRows {
		in += r
	}
	exchange, spill := p.batchDiscount(n.Op())
	if dec.Exchange {
		own = p.parallelShape(own, in, outRows, exchange)
	}
	if dec.Spills {
		own = p.spillShape(n, own, inRows, spill)
	}
	return own
}

// opUnits is one operation's sequential work units over rows input tuples
// at tupleCost each, scaled by the site's penalty; ordered marks a merge
// or elided-sort variant, which only a streaming engine compiles.
func opUnits(op algebra.Op, rows int, tupleCost, penalty float64, streaming, ordered bool) float64 {
	r := float64(rows)
	logR := 1.0
	if r >= 2 {
		logR = math.Log2(r)
	}
	ordered = ordered && streaming
	switch op {
	case algebra.OpSort:
		if ordered {
			return r * tupleCost * penalty * sortVerifyFactor
		}
		return r * logR * tupleCost * penalty
	case algebra.OpProduct, algebra.OpTProduct, algebra.OpJoin, algebra.OpTJoin:
		if streaming {
			units := r * tupleCost * penalty
			if ordered {
				units *= mergeUnitsFactor
			}
			return units
		}
		return r * r * tupleCost * penalty / 4
	case algebra.OpTDiff, algebra.OpTRdup, algebra.OpTAggregate, algebra.OpTUnion, algebra.OpCoal:
		if streaming {
			units := r * tupleCost * penalty
			if ordered {
				units *= mergeUnitsFactor
			}
			return units
		}
		return r * logR * tupleCost * penalty * 2
	case algebra.OpTransferS, algebra.OpTransferD:
		return 0
	default:
		if ordered {
			return r * tupleCost * penalty * mergeUnitsFactor
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

// Plan estimates every position of the plan, keyed by its path
// (algebra.Path.String: "ε", "0", "0.1"), each at the site it executes at;
// the root's Estimate, at "ε", carries the total plan cost. The plan is
// interned into a table of its own, so each distinct (subtree, site) is
// priced once.
func (m *Model) Plan(plan algebra.Node) (map[string]Estimate, error) {
	in := algebra.NewInterner()
	root := in.Intern(plan)
	states, memo := props.NewMemo(in), props.NewTable[Estimate](in)
	if _, err := m.node(root, props.Stratum, states, memo); err != nil {
		return nil, err
	}
	es := make(map[string]Estimate, algebra.Count(root))
	var walk func(n algebra.Node, site props.Site, path algebra.Path)
	walk = func(n algebra.Node, site props.Site, path algebra.Path) {
		es[path.String()], _ = memo.Get(n, site) // priced by m.node
		cs := props.ChildSite(site, n.Op())
		for i, c := range n.Children() {
			walk(c, cs, append(path, i))
		}
	}
	walk(root, props.Stratum, make(algebra.Path, 0, 8))
	return es, nil
}

// Cost returns the total estimated cost of the plan, interned into a table
// of its own.
func (m *Model) Cost(plan algebra.Node) (float64, error) {
	in := algebra.NewInterner()
	return m.Scorer()(in.Intern(plan), props.NewMemo(in))
}

// Scorer returns a cost function for the plans of one optimization, which
// derive their states through the optimization's states memo. An estimate,
// like a state, is a pure function of the node's subtree and site, so the
// scorer memoizes each (subtree, site) estimate in a props.Table over the
// states memo's intern table, indexed by node id: a plan rewritten along
// one path is priced along that path only, at exactly the cost Cost
// reports.
func (m *Model) Scorer() func(plan algebra.Node, states *props.Memo) (float64, error) {
	var memo *props.Table[Estimate]
	return func(plan algebra.Node, states *props.Memo) (float64, error) {
		if memo == nil {
			memo = props.NewTable[Estimate](states.Interner())
		}
		e, err := m.node(plan, props.Stratum, states, memo)
		return e.Cost, err
	}
}

func (m *Model) node(n algebra.Node, site props.Site, states *props.Memo, memo *props.Table[Estimate]) (Estimate, error) {
	if e, ok := memo.Get(n, site); ok {
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
	memo.Add(n, site, e)
	return e, nil
}

// estimate derives one node's output cardinality (Table 1's cardinality
// column used as an estimator) and its own processing cost. With the
// streaming engine the cost is that of dec, the variant physical.Decide
// picks from the children's statically inferred orders (Table 1
// propagation) and the engine's shape — the decision the engine compiles:
// the merge/elided variants are priced with mergeTuple/sortVerifyFactor
// instead of hashTuple and N·log N, a node with an exchange takes the
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
			est.Cost += ce[0].Rows * shipTuple
		case site == props.DBMS:
			est.Cost /= float64(p.Shards)
		}
	}
	if dec.Exchange || dec.Spills {
		var buf [2]float64
		in := buf[:0]
		for _, c := range ce {
			in = append(in, c.Rows)
		}
		est.Cost = p.shaped(n, dec, est.Cost, in, est.Rows)
	}
	return est
}

func (m *Model) estimateOne(n algebra.Node, site props.Site, ce []Estimate, dec physical.Variant) Estimate {
	// The stratum's per-tuple cost is the unit; at the DBMS an operation
	// pays the conventional executor's price times its site penalty.
	tuple, penalty := 1.0, 1.0
	if site == props.DBMS {
		tuple, penalty = dbmsTuple, dbmsPenalty(n.Op())
	}
	streaming := m.params.Streaming && site != props.DBMS
	// groupTuple is the per-tuple partitioning cost of a streaming grouping
	// operator: a hash build/probe, or the cheaper adjacent comparison when
	// the input's delivered order keeps the operator's groups contiguous.
	groupTuple := hashTuple
	if dec.Merge {
		groupTuple = mergeTuple
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
				cst = float64(est.Segments) * segmentRead
			}
		}
		return Estimate{Rows: rows, Cost: cst}
	case algebra.OpSelect:
		in := ce[0].Rows
		return Estimate{Rows: in * defaultSelectivity, Cost: in * tuple}
	case algebra.OpProject:
		in := ce[0].Rows
		return Estimate{Rows: in, Cost: in * tuple}
	case algebra.OpSort:
		in := ce[0].Rows
		if streaming && dec.SortElided {
			// The engine compiles the sort away; charge a verify pass.
			return Estimate{Rows: in, Cost: in * tuple * sortVerifyFactor}
		}
		return Estimate{Rows: in, Cost: in * logN(in) * tuple * penalty}
	case algebra.OpRdup:
		in := ce[0].Rows
		if streaming && dec.Merge {
			// Sorted input: dedup is an adjacent comparison per tuple.
			return Estimate{Rows: math.Max(1, in*0.6), Cost: in * (tuple*0.5 + mergeTuple)}
		}
		return Estimate{Rows: math.Max(1, in*0.6), Cost: in * tuple}
	case algebra.OpAggregate:
		in := ce[0].Rows
		if streaming && dec.Merge {
			return Estimate{Rows: math.Max(1, in*0.3), Cost: in * (tuple*0.5 + mergeTuple)}
		}
		return Estimate{Rows: math.Max(1, in*0.3), Cost: in * tuple}
	case algebra.OpUnionAll:
		return Estimate{Rows: ce[0].Rows + ce[1].Rows, Cost: (ce[0].Rows + ce[1].Rows) * tuple * 0.25}
	case algebra.OpUnion:
		// Between max(n1,n2) and n1+n2 (Table 1).
		rows := math.Max(ce[0].Rows, ce[1].Rows) + 0.5*math.Min(ce[0].Rows, ce[1].Rows)
		if streaming && dec.Merge {
			return Estimate{Rows: rows, Cost: (ce[0].Rows + ce[1].Rows) * (tuple*0.5 + mergeTuple)}
		}
		return Estimate{Rows: rows, Cost: (ce[0].Rows + ce[1].Rows) * tuple}
	case algebra.OpProduct, algebra.OpJoin:
		rows := ce[0].Rows * ce[1].Rows
		if n.Op() == algebra.OpJoin {
			rows *= defaultSelectivity
		}
		if streaming && n.Op() == algebra.OpJoin {
			// Hash join: build + probe + emit, not pairwise work — or, with
			// key-covering input orders, a merge join at mergeTuple per input
			// tuple instead of the hash build/probe.
			return Estimate{Rows: rows, Cost: (ce[0].Rows+ce[1].Rows)*groupTuple + rows*tuple}
		}
		return Estimate{Rows: rows, Cost: ce[0].Rows * ce[1].Rows * tuple}
	case algebra.OpDiff:
		// Between n1−n2 and n1 (Table 1): take the midpoint.
		lo := math.Max(ce[0].Rows-ce[1].Rows, 0)
		rows := (lo + ce[0].Rows) / 2
		if streaming && dec.Merge {
			return Estimate{Rows: rows, Cost: (ce[0].Rows + ce[1].Rows) * (tuple*0.5 + mergeTuple)}
		}
		return Estimate{Rows: rows, Cost: (ce[0].Rows + ce[1].Rows) * tuple}
	case algebra.OpTProduct, algebra.OpTJoin:
		// Pairs that overlap in time: a fraction of the full product.
		overlap := 0.3
		rows := ce[0].Rows * ce[1].Rows * overlap
		if n.Op() == algebra.OpTJoin {
			rows *= defaultSelectivity
		}
		if streaming && n.Op() == algebra.OpTJoin {
			return Estimate{Rows: rows, Cost: (ce[0].Rows+ce[1].Rows)*groupTuple + rows*tuple}
		}
		return Estimate{Rows: rows, Cost: ce[0].Rows * ce[1].Rows * tuple * penalty}
	case algebra.OpTDiff:
		// At most 2·n1 fragments (Table 1).
		n1, n2 := ce[0].Rows, ce[1].Rows
		work := (n1 + n2) * logN(n1+n2)
		if streaming {
			// Hash partition both sides, one pass per value group.
			work = (n1 + n2)
			return Estimate{Rows: math.Min(2*n1, n1*1.25), Cost: (n1+n2)*hashTuple + work*tuple}
		}
		return Estimate{Rows: math.Min(2*n1, n1*1.25), Cost: work * tuple * penalty}
	case algebra.OpTAggregate:
		in := ce[0].Rows
		// At most 2·n−1 constant intervals (Table 1).
		if streaming {
			return Estimate{Rows: math.Max(1, in*1.5), Cost: in*groupTuple + in*2*tuple}
		}
		return Estimate{Rows: math.Max(1, in*1.5), Cost: in * logN(in) * 2 * tuple * penalty}
	case algebra.OpTRdup:
		in := ce[0].Rows
		// At most 2·n−1 (Table 1); duplicates also disappear.
		if streaming {
			return Estimate{Rows: math.Max(1, in*0.8), Cost: in*groupTuple + in*tuple}
		}
		return Estimate{Rows: math.Max(1, in*0.8), Cost: in * logN(in) * 2 * tuple * penalty}
	case algebra.OpTUnion:
		n1, n2 := ce[0].Rows, ce[1].Rows
		// At least n1, at most n1+2·n2 (Table 1).
		if streaming {
			return Estimate{Rows: n1 + n2, Cost: (n1+n2)*hashTuple + (n1+n2)*tuple}
		}
		return Estimate{Rows: n1 + n2, Cost: (n1 + n2) * logN(n1+n2) * tuple * penalty}
	case algebra.OpCoal:
		in := ce[0].Rows
		if streaming {
			return Estimate{Rows: math.Max(1, in*0.7), Cost: in*groupTuple + in*tuple}
		}
		return Estimate{Rows: math.Max(1, in*0.7), Cost: in * logN(in) * tuple * penalty}
	case algebra.OpTransferS, algebra.OpTransferD:
		in := ce[0].Rows
		return Estimate{Rows: in, Cost: in * transferTuple}
	default:
		return Estimate{Rows: ce[0].Rows, Cost: ce[0].Rows * tuple}
	}
}

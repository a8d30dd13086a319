// Package stratum implements the layered architecture's executor
// (Section 2.1): a plan's operations above any TS transfer run in the
// stratum (the temporal layer), everything below a TS is shipped to the
// simulated conventional DBMS, and TD transfers send intermediate stratum
// results back down. The transfers are the only places a list has to exist:
// each maximal stratum region between them runs as one evaluation on a
// fresh engine, over the transferred relations bound as its leaves. The
// executor validates the division of labour, collects the SQL shipped to
// the DBMS, counts transferred tuples, and meters simulated cost units per
// site — from the per-node row counts the engine reports — so experiments
// can report deterministic measurements alongside wall-clock times.
package stratum

import (
	"fmt"
	"time"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/cost"
	"tqp/internal/dbms"
	"tqp/internal/eval"
	"tqp/internal/obs"
	"tqp/internal/physical"
	"tqp/internal/relation"
)

// Trace is the execution record of one plan.
type Trace struct {
	// Engine names the physical engine that ran the stratum-assigned
	// subplans ("reference" or "exec").
	Engine string
	// SQL lists the statements shipped to the DBMS, outermost first.
	SQL []string
	// TuplesTransferred counts tuples crossing the stratum/DBMS boundary
	// in either direction.
	TuplesTransferred int
	// StratumUnits and DBMSUnits are simulated per-site work units,
	// computed from actual intermediate cardinalities with the cost
	// model's per-operation weights.
	StratumUnits float64
	DBMSUnits    float64
	// TransferUnits is the simulated transfer cost.
	TransferUnits float64
	// SegmentsScanned and SegmentsSkipped meter the persistent store's
	// period index over this run's base scans at the DBMS site: segments
	// read versus segments whose min/max chronon fences proved they cannot
	// overlap a time-travel scan's query period.
	SegmentsScanned int
	SegmentsSkipped int
	// Spill accumulates the budgeted engine's spilling across this run's
	// evaluations — stratum regions and DBMS subplans alike, each added
	// from its root sample; PeakBytes is the largest single evaluation's
	// tracked working set. All zero for unbudgeted engines.
	obs.Spill
}

// TotalUnits is the simulated total cost of the run.
func (t *Trace) TotalUnits() float64 { return t.StratumUnits + t.DBMSUnits + t.TransferUnits }

// Executor runs layered plans.
type Executor struct {
	cat    *catalog.Catalog
	src    *countingSource
	engine *dbms.Engine
	params cost.Params
	phys   eval.EngineSpec

	// probe, when set, receives per-node actuals keyed by the node's
	// algebra path in the executed plan — the EXPLAIN ANALYZE hook. A region
	// runs as one pipeline, so the actuals come from inside the engine
	// (eval.NodeObserver): every node's rows and batches, and — asked for
	// only when a probe is installed — its wall time and spill counts, which
	// the executor reduces from subtree totals to the node's own share. A
	// pipelined node's time is therefore the time spent in its own pulls,
	// not the time to materialize it. The region's peak memory is reported
	// on the region's root. Nodes inside a DBMS region are not observable:
	// the simulated DBMS rewrites its subplan before executing, so only the
	// TS transfer above it gets an actual (the transferred row count).
	probe func(path string, s obs.RunSample)
}

// SetProbe installs (or, with nil, removes) the per-node sample callback
// for subsequent Execute calls.
func (x *Executor) SetProbe(fn func(path string, s obs.RunSample)) { x.probe = fn }

// countingSource wraps the catalog as the DBMS's base-relation source so
// that leaf scans are metered: it forwards the catalog's travel-aware
// resolution and accumulates the store's segment counters for the trace.
type countingSource struct {
	cat     *catalog.Catalog
	scanned int
	skipped int
}

func (cs *countingSource) Resolve(name string) (*relation.Relation, error) {
	r, scanned, skipped, err := cs.cat.ResolveScan(name)
	cs.scanned += scanned
	cs.skipped += skipped
	return r, err
}

// New returns an executor over the catalog whose DBMS uses the given
// order-nondeterminism seed; plans run on the reference evaluator at both
// sites.
func New(cat *catalog.Catalog, seed int64) *Executor {
	return NewWithEngine(cat, seed, eval.Reference())
}

// NewWithEngine returns an executor whose plans run on the given physical
// engine (eval.Reference() or exec.NewSpec(exec.Config{})) at both sites:
// the stratum's regions and the DBMS's subplans alike, so a TS result
// reaches the stratum in the engine's own form (columns, for exec). The
// stratum's metering follows the engine's shape (cost.ForEngine); the
// DBMS's metering does not — it prices a conventional engine either way,
// and its seeded permutation and ≡L rewriter are the same on every engine.
func NewWithEngine(cat *catalog.Catalog, seed int64, spec eval.EngineSpec) *Executor {
	if spec.New == nil {
		spec = eval.Reference()
	}
	src := &countingSource{cat: cat}
	return &Executor{
		cat:    cat,
		src:    src,
		engine: dbms.New(src, seed, spec),
		params: cost.ForEngine(spec),
		phys:   spec,
	}
}

// Execute runs the plan, once its division of labour validates, and returns
// its result with a trace.
func (x *Executor) Execute(plan algebra.Node) (*relation.Relation, *Trace, error) {
	if err := ValidateSites(plan); err != nil {
		return nil, nil, err
	}
	tr := &Trace{Engine: x.phys.Name}
	x.src.scanned, x.src.skipped = 0, 0
	x.engine.SetStratumCallback(func(n algebra.Node) (*relation.Relation, error) {
		// A TD re-entry runs inside a DBMS region whose subplan the DBMS
		// may have rewritten; its nodes have no stable path in the original
		// plan, so the re-entrant region executes unprobed.
		r, err := x.exec(n, nil, nil, tr)
		if err != nil {
			return nil, err
		}
		tr.TuplesTransferred += r.Len()
		tr.TransferUnits += cost.TransferUnits(r.Len())
		return r, nil
	})
	r, err := x.exec(plan, nil, x.probe, tr)
	if err != nil {
		return nil, nil, err
	}
	tr.SegmentsScanned, tr.SegmentsSkipped = x.src.scanned, x.src.skipped
	return r, tr, nil
}

// ValidateSites checks the division of labour: every base relation must sit
// below a TS (base data lives in the DBMS), and transfers must alternate
// sites correctly.
func ValidateSites(plan algebra.Node) error {
	return validateSites(plan, true)
}

func validateSites(n algebra.Node, inStratum bool) error {
	switch n.Op() {
	case algebra.OpRel:
		if inStratum {
			return fmt.Errorf("stratum: base relation %s accessed outside the DBMS (missing TS)", n.Label())
		}
		return nil
	case algebra.OpTransferS:
		if !inStratum {
			return fmt.Errorf("stratum: TS nested inside a DBMS region")
		}
		return validateSites(n.Children()[0], false)
	case algebra.OpTransferD:
		if inStratum {
			return fmt.Errorf("stratum: TD in the stratum region (it marks DBMS input)")
		}
		return validateSites(n.Children()[0], true)
	default:
		for _, c := range n.Children() {
			if err := validateSites(c, inStratum); err != nil {
				return err
			}
		}
		return nil
	}
}

// exec runs the stratum region rooted at root — the operations down to the
// next TS transfers — as one evaluation on a fresh engine (the spec is
// shared and immutable, engine state never is, which is what lets the
// server run many executors over one catalog concurrently). The TS subtrees
// run on the DBMS first, left to right, each on a fresh engine of its own,
// and their results are the region's leaves; a region that is a bare TS
// instantiates no stratum engine — it is the DBMS result as it stands. path
// is root's path in the executed plan; probe is nil for an unprobed region.
func (x *Executor) exec(root algebra.Node, path algebra.Path, probe func(string, obs.RunSample), tr *Trace) (*relation.Relation, error) {
	isTS := func(n algebra.Node) bool { return n.Op() == algebra.OpTransferS }
	transfer := func(ts algebra.Node, p algebra.Path) (*relation.Relation, error) {
		sub := ts.Children()[0]
		start := time.Now()
		res, err := x.engine.Execute(sub)
		if err != nil {
			return nil, err
		}
		tr.SQL = append(tr.SQL, res.SQL)
		tr.Spill.Add(res.Run.Spill)
		tr.TuplesTransferred += res.Rel.Len()
		tr.TransferUnits += cost.TransferUnits(res.Rel.Len())
		tr.DBMSUnits = cost.DBMSUnits(tr.DBMSUnits, sub, res.Rel.Len())
		if probe != nil {
			// The TS node's actual is the transferred row count; its wall
			// time covers the whole DBMS region below it.
			probe(append(path.Clone(), p...).String(), obs.RunSample{Rows: int64(res.Rel.Len()), Wall: time.Since(start)})
		}
		return res.Rel, nil
	}
	if isTS(root) {
		return transfer(root, nil)
	}
	bound, leaves, err := algebra.BindLeaves(root, isTS, transfer)
	if err != nil {
		return nil, err
	}
	eng := x.phys.Instantiate(eval.MapSource(leaves))
	// The engine's per-node samples feed the cost meter (row counts and the
	// variant compiled) and the trace's spill accounting always, and the
	// probe when there is one.
	type nodeRun struct {
		obs.RunSample
		variant physical.Variant
	}
	samples := make(map[algebra.Node]nodeRun)
	if o, ok := eng.(eval.NodeObserver); ok {
		o.ObserveNodes(probe != nil, func(n algebra.Node, v physical.Variant, s obs.RunSample) {
			samples[n] = nodeRun{s, v}
		})
	}
	out, err := eng.Eval(bound)
	if err != nil {
		return nil, err
	}
	tr.Spill.Add(samples[bound].Spill)

	// Meter the region node by node, in post-order: every operator is priced
	// on its children's actual rows with the physical variant the engine
	// reports it compiled. The probe gets each node's own share of the
	// subtree totals; paths in the bound region are the plan's.
	var meter func(n algebra.Node, path algebra.Path)
	meter = func(n algebra.Node, path algebra.Path) {
		if n.Op() == algebra.OpRel {
			return // a bound TS: metered and probed at the transfer
		}
		run := samples[n]
		own := run.RunSample
		var buf [2]int
		inRows := buf[:0]
		for i, c := range n.Children() {
			meter(c, path.Child(i))
			below := samples[c]
			inRows = append(inRows, int(below.Rows))
			own.Wall -= below.Wall
			own.Spill = own.Spill.Less(below.Spill)
		}
		tr.StratumUnits += x.params.StratumUnits(n, inRows, run.variant)
		if probe != nil {
			probe(path.String(), own)
		}
	}
	meter(bound, path)
	return out, nil
}

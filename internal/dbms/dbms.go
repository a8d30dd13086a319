// Package dbms simulates the conventional DBMS underneath the stratum
// (Section 2.1). The simulation models exactly the three properties the
// paper relies on:
//
//  1. multiset semantics — the engine computes the same tuple multisets as
//     the reference evaluator;
//  2. no order guarantee — the result of a subplan is permuted
//     deterministically (seeded) unless the subplan's top operation is a
//     sort, "sort being the only exception" (Section 4.5);
//  3. its own optimizer — an ≡L-only rewriter (selection pushdown and
//     cascades) runs before execution, standing in for "the DBMS, which
//     will perform its own optimization". It is one bottom-up pass to a
//     fixpoint: children first, then the first matching rule, whose result
//     is rewritten in turn. Its rules read no states (P3/P4 read a
//     child's schema), so no state inference runs on the execution path.
//
// A subplan runs on the statement's own physical engine (the executor's
// eval.EngineSpec): every engine computes the reference evaluator's list,
// so the permutation applies to the same list whichever engine ran it, and
// the reference spec keeps the oracle on both sites. The permutation is an
// index vector — the seeded shuffle of 0..n-1 — gathered through
// Relation.Permuted, so a columnar result is permuted as a selection over
// its columns and no row is copied.
//
// Temporal operations are executable (the paper's initial plans compute
// everything in the DBMS) but are priced punitively by the cost model: a
// conventional DBMS runs them as complex self-join SQL.
package dbms

import (
	"fmt"
	"math/rand"
	"slices"

	"tqp/internal/algebra"
	"tqp/internal/eval"
	"tqp/internal/obs"
	"tqp/internal/physical"
	"tqp/internal/props"
	"tqp/internal/relation"
	"tqp/internal/rules"
	"tqp/internal/sqlgen"
)

// StratumCallback executes a TD-transferred stratum subtree; the stratum
// executor supplies it so that plans may ship intermediate stratum results
// back into the DBMS.
type StratumCallback func(n algebra.Node) (*relation.Relation, error)

// Engine is one simulated DBMS instance.
type Engine struct {
	src      eval.Source
	seed     int64
	spec     eval.EngineSpec
	stratum  StratumCallback
	rewrites []rules.Rule
}

// New returns an engine over the given base-relation source that runs its
// subplans on the physical engine spec names. The seed drives the order
// nondeterminism; two engines with different seeds are two "DBMS
// implementations" that may sort results differently.
func New(src eval.Source, seed int64, spec eval.EngineSpec) *Engine {
	return &Engine{
		src:      src,
		seed:     seed,
		spec:     spec,
		rewrites: dbmsRewrites,
	}
}

// dbmsRewrites is the DBMS's own rewriter: ≡L rules only, so it is always
// safe regardless of result-type context. Rules are immutable values, so
// every engine shares the one list.
var dbmsRewrites = rules.ByName("P2", "P3", "P4", "P5", "P6b", "PP2", "PP1")

// SetStratumCallback wires the executor handling TD subtrees.
func (e *Engine) SetStratumCallback(cb StratumCallback) { e.stratum = cb }

// Result is a DBMS execution outcome.
type Result struct {
	// Rel is the result relation. Its recorded order is the DBMS-site
	// order of the subplan (props.OrderOf with no argument orders): the top
	// sort's spec, or empty.
	Rel *relation.Relation
	// SQL is the statement the stratum would have shipped.
	SQL string
	// Rewritten is the subplan after the DBMS's own rewriter.
	Rewritten algebra.Node
	// Run is the physical engine's sample of the subplan's root: its spill
	// totals and peak working set (zero for an unbudgeted engine).
	Run obs.RunSample
}

// Execute runs a subplan fully inside the DBMS.
func (e *Engine) Execute(subplan algebra.Node) (*Result, error) {
	sql, err := sqlgen.Generate(subplan)
	if err != nil {
		// Plans containing TD subtrees have no single-statement SQL form;
		// keep a marker for the trace.
		sql = "-- (subplan with stratum round-trip; no single SQL statement)"
	}
	budget := maxRewrites
	optimized := e.rewrite(subplan, &budget)
	out, run, err := e.eval(optimized)
	if err != nil {
		return nil, err
	}
	if subplan.Op() != algebra.OpSort {
		out = out.Permuted(e.permutation(out.Len()))
	}
	out.SetOrder(props.OrderOf(subplan))
	return &Result{Rel: out, SQL: sql, Rewritten: optimized, Run: run}, nil
}

// eval evaluates a DBMS subplan on a fresh engine of the spec: the TD
// subtrees run in the stratum first, left to right, and their results are
// bound as leaves of the subplan beside its base relations. It returns the
// engine's sample of the root as well.
func (e *Engine) eval(n algebra.Node) (*relation.Relation, obs.RunSample, error) {
	cut := func(n algebra.Node) bool {
		return n.Op() == algebra.OpTransferD || n.Op() == algebra.OpTransferS
	}
	bound, leaves, err := algebra.BindLeaves(n, cut, func(n algebra.Node, _ algebra.Path) (*relation.Relation, error) {
		if n.Op() == algebra.OpTransferS {
			return nil, fmt.Errorf("dbms: nested TS inside a DBMS subplan")
		}
		if e.stratum == nil {
			return nil, fmt.Errorf("dbms: TD encountered but no stratum callback installed")
		}
		return e.stratum(n.Children()[0])
	})
	if err != nil {
		return nil, obs.RunSample{}, err
	}
	eng := e.spec.Instantiate(boundSource{leaves: leaves, base: e.src})
	var root obs.RunSample
	if o, ok := eng.(eval.NodeObserver); ok {
		o.ObserveNodes(false, func(n algebra.Node, _ physical.Variant, s obs.RunSample) {
			if n == bound {
				root = s
			}
		})
	}
	r, err := eng.Eval(bound)
	return r, root, err
}

// boundSource resolves a subplan's bound TD results ahead of the base
// relations.
type boundSource struct {
	leaves eval.MapSource
	base   eval.Source
}

func (s boundSource) Resolve(name string) (*relation.Relation, error) {
	if r, ok := s.leaves[name]; ok {
		return r, nil
	}
	return s.base.Resolve(name)
}

// maxRewrites bounds the rewrites of one subplan. The DBMS's rules only
// split conjunctions and push selections and projections down, so every
// subplan reaches its fixpoint long before; the bound is a safety net.
const maxRewrites = 64

// rewrite applies the DBMS's own ≡L rewriter to n in one bottom-up pass:
// n's children first, then the first rule matching at n, whose result is
// rewritten in turn. A rule reads only the subtree it matches, so a node
// none matches, over rewritten children, roots a fixpoint. The rules read
// no states, so Apply gets none. budget counts the rewrites left.
func (e *Engine) rewrite(n algebra.Node, budget *int) algebra.Node {
	var kids []algebra.Node // n's children once one of them changed
	for i, c := range n.Children() {
		if r := e.rewrite(c, budget); r != c {
			if kids == nil {
				kids = slices.Clone(n.Children())
			}
			kids[i] = r
		}
	}
	if kids != nil {
		n = n.WithChildren(kids...)
	}
	if *budget == 0 {
		return n
	}
	for _, rule := range e.rewrites {
		if rw := rule.Apply(n, nil); rw != nil {
			*budget--
			return e.rewrite(rw.Result, budget)
		}
	}
	return n
}

// permutation returns the engine's deterministic seeded permutation of n
// rows — the "whatever order the DBMS happens to produce" of Section 4.5 —
// as the index vector the permuted list gathers: its k-th row is the
// result's idx[k]-th.
func (e *Engine) permutation(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(e.seed + int64(n)))
	rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return idx
}

package core

import (
	"fmt"

	"tqp/internal/algebra"
	"tqp/internal/exec"
	"tqp/internal/expr"
	"tqp/internal/physical"
	"tqp/internal/props"
	"tqp/internal/relation"
	"tqp/internal/schema"
)

// This file splits a chosen physical plan for sharded execution: it
// extracts the maximal per-shard fragments — subtrees of the plan, chains
// over one base relation that every shard can run independently over its
// slice — and rewrites the plan so each extracted subtree reads a placeholder
// relation instead. The coordinator ships each subtree as it stands, runs it
// on the shards (exec.RunFragment), merges their outputs
// deterministically (exec.MergeParts), registers the merged
// results as the placeholder relations of a synthetic catalog, and
// executes the remainder plan through the ordinary stratum executor. The
// rewrite is engineered so the remainder replays the single-node
// execution bit-identically:
//
//   - A chain fragment (σ/π nodes over a scan, no sort) merges by sequence key
//     back into the exact stored-order list the single-node DBMS would
//     have produced, and its placeholder sits where the chain sat — the
//     simulated DBMS's seeded permutation then applies to the same list
//     with the same length, so the same permuted list comes out.
//   - A sorted fragment pushes the sort down too (each shard sorts its
//     slice by the full spec; stability makes the local result the
//     restriction of the global stable sort), merges by (keys, sequence),
//     and keeps the Sort node in the remainder: re-sorting the already
//     sorted placeholder is a stable identity, and a sort-topped DBMS
//     subplan is exactly the case the simulated DBMS does not permute —
//     matching the single-node run.
//   - A grouped fragment additionally pushes one group operation
//     (temporal coalescing, temporal duplicate elimination, or a
//     conventional aggregate) from directly above the transfer, valid
//     only when the partitioning keeps every group on one shard and the
//     pushed sort's covering prefix lines up the groups contiguously.
//     Group outputs merge block-wise on that prefix; the replacement
//     TS(sort_prefix(placeholder)) keeps the site contract and the
//     no-permute gating intact while the sort is again a stable identity.
//
// Everything else — joins, set operations, projections, stratum-side
// operators, transfers — stays in the remainder and runs once,
// coordinator-side, exactly as a single node would run it.

// SplitPolicy tells the splitter what the partitioning guarantees.
type SplitPolicy struct {
	// Colocated reports whether every group of rel's rows agreeing on
	// attrs lives wholly on one shard. nil disables group push-down.
	Colocated func(rel string, attrs []string) bool
}

// FragmentKind classifies how a fragment's shard outputs merge.
type FragmentKind uint8

const (
	// FragmentChain merges by global sequence key (stored order).
	FragmentChain FragmentKind = iota
	// FragmentSorted merges by (sort keys, sequence key).
	FragmentSorted
	// FragmentGrouped merges whole group blocks on the grouping prefix.
	FragmentGrouped
)

// String names the kind.
func (k FragmentKind) String() string {
	switch k {
	case FragmentChain:
		return "chain"
	case FragmentSorted:
		return "sorted"
	default:
		return "grouped"
	}
}

// Fragment is one pushed-down plan subtree: what every shard runs over its
// slice of the subtree's base relation, plus what the coordinator needs to
// merge the outputs and stand in a placeholder relation for the remainder
// plan.
type Fragment struct {
	// Name is the placeholder relation registered for the merged result.
	Name string
	Kind FragmentKind
	// Plan is the subtree every shard runs (see exec.RunFragment): a chain
	// of unary operators over one base relation.
	Plan algebra.Node
	// Schema is the fragment's output schema.
	Schema *schema.Schema
	// Order is the merged result's delivered order, declared on the
	// placeholder, and what the merge orders by: the base declared order
	// for chains, the full pushed sort spec for sorted fragments, the
	// covering prefix of the pushed sort over the grouping attributes for
	// grouped ones.
	Order relation.OrderSpec
}

// Merge reassembles the fragment's outputs, one per shard, into the list a
// single node holds at the fragment's plan point — grouped outputs
// block-wise on Order, sorted ones by (Order, sequence key), and chains by
// sequence key alone, their stored order — as a columnar-primary relation,
// so the remainder scans its placeholder with no conversion.
func (f Fragment) Merge(parts []exec.TaggedRows) *relation.Relation {
	order := f.Order
	if f.Kind == FragmentChain {
		order = nil
	}
	return relation.FromColumnar(f.Schema, exec.MergeParts(f.Schema, order, f.Kind == FragmentGrouped, parts))
}

// Split is a plan divided for sharded execution.
type Split struct {
	Fragments []Fragment
	// Remainder is the plan with every fragment subtree replaced by its
	// placeholder; its base-relation leaves are exactly the placeholders.
	Remainder algebra.Node
}

type splitter struct {
	policy SplitPolicy
	frags  []Fragment
	err    error
}

// SplitForShards divides a physical plan (with its transfer nodes, as
// prepared by the optimizer) into per-shard fragments and a coordinator
// remainder. Every base-relation access ends up in some fragment — a bare
// scan is a degenerate chain — so the remainder never touches base data.
func SplitForShards(plan algebra.Node, policy SplitPolicy) (*Split, error) {
	s := &splitter{policy: policy}
	remainder := s.rewriteStratum(plan)
	if s.err != nil {
		return nil, s.err
	}
	return &Split{Fragments: s.frags, Remainder: remainder}, nil
}

// rewriteStratum walks a stratum region: group operations directly above a
// transfer may push down whole; transfers switch to the DBMS walker.
func (s *splitter) rewriteStratum(n algebra.Node) algebra.Node {
	if s.err != nil {
		return n
	}
	if repl, ok := s.tryGrouped(n); ok {
		return repl
	}
	if n.Op() == algebra.OpTransferS {
		return algebra.NewTransferS(s.rewriteDBMS(n.Children()[0]))
	}
	return s.rewriteChildren(n, s.rewriteStratum)
}

// rewriteDBMS walks a DBMS region: maximal sort?((σ|π)*(scan)) chains
// become fragments; a TD switches back to the stratum walker.
func (s *splitter) rewriteDBMS(n algebra.Node) algebra.Node {
	if s.err != nil {
		return n
	}
	if repl, ok := s.tryChain(n); ok {
		return repl
	}
	if n.Op() == algebra.OpTransferD {
		return algebra.NewTransferD(s.rewriteStratum(n.Children()[0]))
	}
	return s.rewriteChildren(n, s.rewriteDBMS)
}

func (s *splitter) rewriteChildren(n algebra.Node, walk func(algebra.Node) algebra.Node) algebra.Node {
	ch := n.Children()
	if len(ch) == 0 {
		if n.Op() == algebra.OpRel {
			// validateSites rejects this before splitting; defend anyway.
			s.fail(fmt.Errorf("core: base relation %s outside a DBMS region", n.Label()))
		}
		return n
	}
	out := make([]algebra.Node, len(ch))
	for i, c := range ch {
		out[i] = walk(c)
	}
	return n.WithChildren(out...)
}

func (s *splitter) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// chainMatch is a matched sort?((σ|π)*(Rel)) chain: the leaf, the optional
// top sort, and the chain's pre-sort output schema, delivered order, and
// output-name → base-attribute mapping (projections rename; an output
// column computed by a non-column expression has no base attribute and is
// absent from the map).
type chainMatch struct {
	rel   *algebra.Rel
	srt   *algebra.Sort
	sch   *schema.Schema
	order relation.OrderSpec
	base  map[string]string
}

// matchChain matches n against sort?((σ|π)*(Rel)).
func matchChain(n algebra.Node) (*chainMatch, bool) {
	var srt *algebra.Sort
	if sn, ok := n.(*algebra.Sort); ok {
		srt = sn
		n = sn.Children()[0]
	}
	var nodes []algebra.Node // outermost first
	for {
		switch n.(type) {
		case *algebra.Select, *algebra.Project:
			nodes = append(nodes, n)
			n = n.Children()[0]
			continue
		}
		break
	}
	rel, ok := n.(*algebra.Rel)
	if !ok {
		return nil, false
	}
	m := &chainMatch{
		rel:   rel,
		srt:   srt,
		sch:   rel.Sch,
		order: rel.Info.Order,
		base:  make(map[string]string, rel.Sch.Len()),
	}
	for i := 0; i < rel.Sch.Len(); i++ {
		m.base[rel.Sch.At(i).Name] = rel.Sch.At(i).Name
	}
	// Apply innermost first, threading schema, order and renames.
	for i := len(nodes) - 1; i >= 0; i-- {
		m.order = props.OrderOf(nodes[i], m.order)
		p, ok := nodes[i].(*algebra.Project)
		if !ok {
			continue
		}
		outSch, err := p.Schema()
		if err != nil {
			return nil, false
		}
		next := make(map[string]string, len(p.Items))
		for _, it := range p.Items {
			if col, ok := it.Expr.(expr.Col); ok {
				if src, ok := m.base[col.Name]; ok {
					if _, dup := next[it.As]; !dup {
						next[it.As] = src
					}
				}
			}
		}
		m.sch, m.base = outSch, next
	}
	return m, true
}

// tryChain extracts a chain or sorted fragment rooted at n.
func (s *splitter) tryChain(n algebra.Node) (algebra.Node, bool) {
	m, ok := matchChain(n)
	if !ok {
		return nil, false
	}
	if m.srt == nil {
		return s.push(Fragment{Kind: FragmentChain, Plan: n, Schema: m.sch, Order: m.order}), true
	}
	// Keep the sort in the remainder: a stable re-sort of the merged
	// (already sorted) placeholder is the identity, and the DBMS's
	// sort-topped no-permute gating stays exactly as single-node.
	placeholder := s.push(Fragment{Kind: FragmentSorted, Plan: n, Schema: m.sch, Order: m.srt.Spec})
	return algebra.NewSort(m.srt.Spec, placeholder), true
}

// push records f under the next placeholder name and returns the
// placeholder relation that stands in for it in the remainder.
func (s *splitter) push(f Fragment) algebra.Node {
	f.Name = fmt.Sprintf("@part%d", len(s.frags))
	s.frags = append(s.frags, f)
	return algebra.NewRel(f.Name, f.Schema, algebra.BaseInfo{Order: f.Order})
}

// tryGrouped extracts a grouped fragment: one group operation directly
// above TS(sort((σ|π)*(Rel))), pushed only when the partitioning colocates
// the groups and the pushed sort lines them up contiguously.
func (s *splitter) tryGrouped(n algebra.Node) (algebra.Node, bool) {
	if s.policy.Colocated == nil {
		return nil, false
	}
	switch n.Op() {
	case algebra.OpCoal, algebra.OpTRdup:
	case algebra.OpAggregate:
		if len(n.(*algebra.Aggregate).GroupBy) == 0 {
			return nil, false
		}
	default:
		return nil, false
	}
	ts := n.Children()[0]
	if ts.Op() != algebra.OpTransferS {
		return nil, false
	}
	m, ok := matchChain(ts.Children()[0])
	if !ok || m.srt == nil {
		return nil, false
	}
	// The grouping attributes, in the chain's output schema: the value
	// attributes for the temporal group operations, the GROUP BY list for
	// the aggregate (time attributes excluded — the conventional aggregate
	// renames them).
	sch := m.sch
	var gidx []int
	if agg, ok := n.(*algebra.Aggregate); ok {
		t1, t2 := sch.TimeIndices()
		for _, a := range agg.GroupBy {
			j := sch.Index(a)
			if j < 0 || j == t1 || j == t2 {
				return nil, false
			}
			gidx = append(gidx, j)
		}
	} else {
		gidx = physical.ValueIdx(sch)
	}
	// Colocation is a property of the base relation's storage, so map each
	// grouping attribute back through the chain's projections to its base
	// attribute; a computed column has none, which forbids the push.
	attrs := make([]string, len(gidx))
	for i, j := range gidx {
		src, ok := m.base[sch.At(j).Name]
		if !ok {
			return nil, false
		}
		attrs[i] = src
	}
	prefix, ok := physical.CoveringPrefix(m.srt.Spec, sch, gidx)
	if !ok || !s.policy.Colocated(m.rel.Name, attrs) {
		return nil, false
	}
	outSch, err := n.Schema()
	if err != nil {
		s.fail(err)
		return nil, false
	}
	placeholder := s.push(Fragment{Kind: FragmentGrouped, Plan: n.WithChildren(ts.Children()[0]), Schema: outSch, Order: prefix})
	// TS(sort_prefix(placeholder)): site-valid, permute-gated, identity.
	return algebra.NewTransferS(algebra.NewSort(prefix, placeholder)), true
}

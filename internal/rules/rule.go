// Package rules implements the transformation-rule catalog of Section 4:
// the duplicate-elimination rules D1–D6, the coalescing rules C1–C10, the
// sorting rules S1–S3 (plus the sort-pushdown family Section 4.4 sketches),
// the conventional rules extended to lists and temporal operations
// (Section 4.1), and the transfer rules of the stratum architecture
// (Section 4.5).
//
// Every rule is an algebraic equivalence annotated with the strongest of
// the six equivalence types that holds (Section 3), a syntactic match, a
// semantic precondition over the static state of package props, and the
// participant set whose operation properties gate its application in the
// enumeration algorithm (Figure 5).
package rules

import (
	"tqp/internal/algebra"
	"tqp/internal/equiv"
	"tqp/internal/props"
)

// Rewrite is the outcome of matching a rule at a location: the replacement
// subtree and the participating operations (the operations explicitly
// mentioned on the rule's left-hand side plus the roots of its subtree
// variables, per Section 6).
type Rewrite struct {
	Result algebra.Node
	// Participants are the participating operations' positions on the
	// left-hand side, as paths from the location (the location itself
	// first). A position, not a node, names each: where a plan repeats a
	// subtree, as an interned plan does by sharing one node, the same node
	// can sit at a participant's position and elsewhere in the location,
	// and only the position says whose properties gate the rule.
	Participants []algebra.Path
}

// Rule is one transformation rule.
type Rule struct {
	// Name identifies the rule ("D2", "C10", "P3", ...).
	Name string
	// Type is the strongest equivalence type the rule preserves.
	Type equiv.Type
	// Doc is a one-line statement of the equivalence.
	Doc string
	// Expanding marks rules that grow the plan (e.g., introducing a
	// duplicate elimination); the enumerator excludes them by default so
	// that enumeration terminates (Section 6).
	Expanding bool
	// PushesSort marks the sort-pushdown rules (S4–S10 and T-sort): the
	// rewrite moves the sort at its location into the sort's argument,
	// where the sort becomes the rewritten location's first child, ready
	// to be pushed again. The beam search follows such a sort down (see
	// package enum).
	PushesSort bool
	// Apply matches the rule against the subtree rooted at n (a location
	// in some plan) under the static states st reads; it returns nil when
	// the rule does not apply there.
	Apply func(n algebra.Node, st Lookup) *Rewrite
}

// Lookup is how a rule reads the static states of the nodes it matches: a
// whole plan's (props.States) or the location's top StateDepth+1 levels
// (the search's props.View). The DBMS's rewriter passes none: its rules
// read no states.
type Lookup interface {
	State(n algebra.Node) (props.State, bool)
}

// StateDepth is how far below its location a rule reads states: no rule's
// Apply looks up a node deeper than its location's great-grandchildren, so
// a caller may hand Apply the states of the location's top StateDepth+1
// levels only.
const StateDepth = 3

// Participant positions, as paths from the location: here is the location,
// c0 its first child, c01 that child's second child, and so on.
var (
	here = algebra.Path{}
	c0   = algebra.Path{0}
	c1   = algebra.Path{1}
	c00  = algebra.Path{0, 0}
	c01  = algebra.Path{0, 1}
	c10  = algebra.Path{1, 0}
	c000 = algebra.Path{0, 0, 0}
	c001 = algebra.Path{0, 0, 1}
	c010 = algebra.Path{0, 1, 0}
)

// rw is a convenience constructor for Rewrite.
func rw(result algebra.Node, participants ...algebra.Path) *Rewrite {
	return &Rewrite{Result: result, Participants: participants}
}

// All returns the full rule catalog. The slice is freshly allocated; callers
// may filter it (the enumerator's heuristics do).
func All() []Rule {
	var out []Rule
	out = append(out, DupRules()...)
	out = append(out, CoalRules()...)
	out = append(out, SortRules()...)
	out = append(out, ConventionalRules()...)
	out = append(out, TransferRules()...)
	return out
}

// ByName returns the named rules, panicking on unknown names (test helper).
func ByName(names ...string) []Rule {
	idx := make(map[string]Rule)
	for _, r := range All() {
		idx[r.Name] = r
	}
	out := make([]Rule, 0, len(names))
	for _, n := range names {
		r, ok := idx[n]
		if !ok {
			panic("rules: unknown rule " + n)
		}
		out = append(out, r)
	}
	return out
}

// NonExpanding filters the catalog to rules the enumerator may apply
// without risking non-termination.
func NonExpanding(rs []Rule) []Rule {
	out := make([]Rule, 0, len(rs))
	for _, r := range rs {
		if !r.Expanding {
			out = append(out, r)
		}
	}
	return out
}

// Package enum implements the query plan enumeration algorithm of Figure 5:
// a worklist fixpoint over a set of plans and a set of transformation rules,
// where a rule of equivalence type T may be applied at a location only when
// the operation properties of every participating operation permit T
// (package props). Per Theorem 6.1 the algorithm generates only correct
// plans; per the paper's remark it is deterministic — the generated set does
// not depend on the order of rules or locations.
//
// To terminate, the rule set must not contain expanding rules such as
// r →S rdup(r) (Section 6); the default configuration excludes them, and a
// plan cap bounds the walk regardless. Enumerate and Beam expand each plan
// once, so their rule counts cover first expansions only.
//
// One search is one memo. Every plan it builds is hash-consed through an
// intern table (algebra.Interner), so equal subtrees are one node and the
// seen set, the states (props.Memo), the estimates (cost.Model.Scorer) and
// the rule matches key on node identity: a rediscovered plan is a pointer
// lookup that builds nothing, and each distinct (subtree, site) derives its
// state, cost, matches and guard verdicts once. Canonical strings are
// rendered only for provenance and display (Result.Provenance,
// Result.Derivation). The guard reads each location's requirement τ
// top-down along the visit and each participant's at the participant's own
// position, which the rule names by its path from the location, so it is
// exact per position even where two equal subtrees of a plan are one node.
// Inside the DBMS it admits only rewrites that keep an ordered region's
// root a sort (props.DBMSOrderKept).
//
// The beam chases orders: when a sort-pushdown rule (S4–S10, T-sort) fires,
// the search follows the pushed sort through every further pushdown the
// guard admits, scoring each plan on the way (see Beam).
package enum

import (
	"fmt"
	"slices"

	"tqp/internal/algebra"
	"tqp/internal/equiv"
	"tqp/internal/props"
	"tqp/internal/rules"
)

// Config controls an enumeration run.
type Config struct {
	// Rules is the transformation-rule set; nil means the full non-expanding
	// catalog.
	Rules []rules.Rule
	// ResultType is the query's result type per Definition 5.1, which
	// seeds the property inference at the root.
	ResultType equiv.ResultType
	// MaxPlans caps the number of generated plans (0 = 4096). The cap is a
	// safety net; if it is hit, Result.Capped is set and determinism across
	// rule orders is no longer guaranteed.
	MaxPlans int
	// IncludeExpanding admits expanding rules (plan-growing); use only with
	// a tight MaxPlans.
	IncludeExpanding bool
}

// Step records how a plan was derived.
type Step struct {
	// Parent is the canonical form of the plan the rule was applied to.
	Parent string
	// Rule is the name of the applied rule.
	Rule string
	// RuleType is the rule's equivalence type.
	RuleType equiv.Type
	// Path locates the rewritten node in the parent plan.
	Path algebra.Path
}

// Result is the outcome of an enumeration.
type Result struct {
	// Plans holds every generated plan, the initial plan first, in
	// discovery order. The plans are interned (algebra.Interner): within
	// one Result, equal subtrees are one node.
	Plans []algebra.Node
	// Scores holds each plan's score, index for index with Plans: Beam
	// records them as it scores; Enumerate does not score and leaves it to
	// the caller.
	Scores []float64
	// GuardRejections counts, per rule, how many syntactic matches the
	// property guard of Figure 5 rejected. Every plan is expanded once, so
	// the beam's counts cover each member's first and only expansion, plus
	// the steps of its order chases.
	GuardRejections map[string]int
	// Applications counts, per rule, how many times it produced a plan
	// (including rediscoveries of known plans), over the same expansions.
	Applications map[string]int
	// Expanded counts the plans whose rewrites were generated: each plan
	// Enumerate reached before any cap, each distinct beam member.
	Expanded int
	// Capped reports that MaxPlans stopped the fixpoint early.
	Capped bool

	// index maps each plan to its position in Plans: the search's seen
	// set, keyed by the interned root.
	index map[algebra.Node]int
	// steps records, index for index with Plans, how each plan was first
	// produced; the initial plan's entry is empty.
	steps []step
	// paths is the arena the steps' paths are copied into.
	paths []int
}

// step is a Step as the search records it: the parent by index, the rule by
// reference, and nothing rendered.
type step struct {
	parent int
	rule   *rules.Rule
	path   algebra.Path
}

// Provenance maps each plan's canonical form to the step that first
// produced it (absent for the initial plan). It renders every plan, so it
// is for display and tests; the search itself never renders a plan.
func (r *Result) Provenance() map[string]Step {
	out := make(map[string]Step, len(r.Plans))
	for i := 1; i < len(r.Plans); i++ {
		out[algebra.Canonical(r.Plans[i])] = r.step(i)
	}
	return out
}

// step renders the i-th plan's step.
func (r *Result) step(i int) Step {
	s := r.steps[i]
	return Step{
		Parent:   algebra.Canonical(r.Plans[s.parent]),
		Rule:     s.rule.Name,
		RuleType: s.rule.Type,
		Path:     s.path.Clone(),
	}
}

// Derivation reconstructs the chain of steps that produced the given plan,
// earliest step first. The plan may be one of Plans or any tree equal to
// one; a plan the search never produced has no derivation.
func (r *Result) Derivation(plan algebra.Node) []Step {
	i, ok := r.index[plan]
	if !ok {
		key := algebra.Canonical(plan)
		for j, p := range r.Plans {
			if algebra.Canonical(p) == key {
				i, ok = j, true
				break
			}
		}
	}
	var out []Step
	for ok && i > 0 {
		out = append(out, r.step(i))
		i = r.steps[i].parent
	}
	slices.Reverse(out)
	return out
}

// Enumerate runs the Figure 5 algorithm from the initial plan.
func Enumerate(initial algebra.Node, cfg Config) (*Result, error) {
	x, err := newExpansion(initial, cfg)
	if err != nil {
		return nil, err
	}
	maxPlans := cfg.MaxPlans
	if maxPlans <= 0 {
		maxPlans = 4096
	}
	res := x.res
	for i := 0; i < len(res.Plans) && !res.Capped; i++ {
		err := x.expand(i, func(algebra.Node) (bool, error) {
			res.Capped = len(res.Plans) >= maxPlans
			return !res.Capped, nil
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// expansion is the one rewrite step Enumerate and Beam share. It interns
// every plan it builds, derives states through one memo for the whole
// search and records every plan it generates, with its provenance, in one
// Result.
type expansion struct {
	rules  []rules.Rule
	rt     equiv.ResultType
	intern *algebra.Interner
	states *props.Memo
	memo   map[props.Sited]sited
	res    *Result
	// chase follows each pushed sort down (Beam); Enumerate closes the
	// space anyway and does not.
	chase bool
	// st and pos are scratch for one location's subtree: its states, read
	// by the rules, and its positions, read by the guard.
	st  props.States
	pos []position
}

// position is one place in the top levels of a location's subtree: the
// node there, its depth below the location, the site it executes at, its
// requirement τ, and where its children's positions start in the list.
type position struct {
	n     algebra.Node
	depth int
	site  props.Site
	tau   equiv.Type
	kids  int
}

func newExpansion(initial algebra.Node, cfg Config) (*expansion, error) {
	if err := algebra.Validate(initial); err != nil {
		return nil, fmt.Errorf("enum: invalid initial plan: %w", err)
	}
	ruleSet := cfg.Rules
	if ruleSet == nil {
		ruleSet = rules.All()
	}
	if !cfg.IncludeExpanding {
		ruleSet = rules.NonExpanding(ruleSet)
	}
	intern := algebra.NewInterner()
	initial = intern.Intern(initial)
	return &expansion{
		rules:  ruleSet,
		rt:     cfg.ResultType,
		intern: intern,
		states: props.NewMemo(),
		memo:   make(map[props.Sited]sited),
		res: &Result{
			Plans:           []algebra.Node{initial},
			GuardRejections: make(map[string]int),
			Applications:    make(map[string]int),
			index:           map[algebra.Node]int{initial: 0},
			steps:           make([]step, 1, 64),
		},
		st: make(props.States),
	}, nil
}

// expand applies every rule at every node of the i-th plan, in pre-order,
// under the Figure 5 guard. Each rewrite yielding a plan not seen before is
// appended to the Result with its provenance and passed to found, which
// returns false to end the expansion there.
//
// The guard reads each location's requirement τ, derived top-down along
// the visit, so it is exact per position even where the intern table made
// two equal subtrees of the plan one node.
func (x *expansion) expand(i int, found func(algebra.Node) (bool, error)) error {
	x.res.Expanded++
	// visit rewrites at n, addressed by path, then at n's descendants.
	// path's backing array is reused across siblings; a step copies it.
	var visit func(n algebra.Node, site props.Site, tau equiv.Type, path algebra.Path) (bool, error)
	visit = func(n algebra.Node, site props.Site, tau equiv.Type, path algebra.Path) (bool, error) {
		e, err := x.entry(n, site, tau)
		if err != nil {
			return false, err
		}
		for k, m := range e.ms {
			if more, err := x.apply(i, m, e.admits(tau, k), path, found); !more || err != nil {
				return false, err
			}
		}
		cs := props.ChildSite(site, n.Op())
		for j, c := range n.Children() {
			if more, err := visit(c, cs, e.kids[tau][j], append(path, j)); !more || err != nil {
				return false, err
			}
		}
		return true, nil
	}
	_, err := visit(x.res.Plans[i], props.Stratum, x.rt.Guard(), make(algebra.Path, 0, 8))
	return err
}

// apply applies match m at path in the i-th plan if the guard admitted it
// there. A new plan is recorded and passed to found; when the rule pushed a
// sort and the search chases, the sort is then followed down the new plan.
func (x *expansion) apply(i int, m match, admitted bool, path algebra.Path, found func(algebra.Node) (bool, error)) (bool, error) {
	if !admitted {
		x.res.GuardRejections[m.rule.Name]++
		return true, nil
	}
	newPlan, err := x.intern.ReplaceAt(x.res.Plans[i], path, m.rewrite.Result)
	if err != nil {
		return false, err
	}
	x.res.Applications[m.rule.Name]++
	if _, seen := x.res.index[newPlan]; seen {
		return true, nil
	}
	// Every schema derivation propagates its children's errors, so the
	// root's schema validates the whole plan; a plan seen before was valid
	// then.
	if _, err := newPlan.Schema(); err != nil {
		return false, fmt.Errorf("enum: rule %s at %s produced invalid plan: %w", m.rule.Name, path, err)
	}
	j := x.record(newPlan, i, m.rule, path)
	if more, err := found(newPlan); !more || err != nil {
		return false, err
	}
	if !x.chase || !m.rule.PushesSort {
		return true, nil
	}
	return x.chaseSort(j, append(path, 0), found)
}

// chaseSort follows the sort that a pushdown left at path in the j-th plan
// one level further down, through every pushdown the guard admits there,
// recording and scoring each plan on the way and chasing from it in turn.
//
// A pushed sort usually costs more than it saves until an operator below
// its old place can run on its order — the merge or group-at-a-time
// variant, or a sort executed by the DBMS — so a search that scores each
// one-step push on its own stops in the local minimum just above the
// payoff. Interesting orders (Selinger et al., SIGMOD 1979) exist for the
// same reason. The chase scores every step, so the payoff plan competes
// for the beam like any other; it does not widen the beam.
func (x *expansion) chaseSort(j int, path algebra.Path, found func(algebra.Node) (bool, error)) (bool, error) {
	srt, site, tau, err := x.locate(x.res.Plans[j], path)
	if err != nil {
		return false, err
	}
	if srt.Op() != algebra.OpSort {
		return true, nil
	}
	e, err := x.entry(srt, site, tau)
	if err != nil {
		return false, err
	}
	for k, m := range e.ms {
		if !m.rule.PushesSort {
			continue
		}
		if more, err := x.apply(j, m, e.admits(tau, k), path, found); !more || err != nil {
			return false, err
		}
	}
	return true, nil
}

// locate returns the node at path in plan with the site it executes at
// and its requirement τ, derived top-down as expand derives it.
func (x *expansion) locate(plan algebra.Node, path algebra.Path) (algebra.Node, props.Site, equiv.Type, error) {
	n, site, tau := plan, props.Stratum, x.rt.Guard()
	for _, i := range path {
		ch := n.Children()
		if i >= len(ch) {
			return nil, site, tau, fmt.Errorf("enum: path %s leaves the plan", path)
		}
		taus, cs, err := x.childTaus(n, site, tau)
		if err != nil {
			return nil, site, tau, err
		}
		n, site, tau = ch[i], cs, taus[i]
	}
	return n, site, tau, nil
}

// childTaus returns what the children of n, executing at site and
// requiring tau, require, and the site they execute at.
func (x *expansion) childTaus(n algebra.Node, site props.Site, tau equiv.Type) ([2]equiv.Type, props.Site, error) {
	ch, cs := n.Children(), props.ChildSite(site, n.Op())
	if len(ch) == 0 {
		return [2]equiv.Type{}, cs, nil
	}
	left, err := x.states.State(ch[0], cs)
	if err != nil {
		return [2]equiv.Type{}, cs, fmt.Errorf("enum: state inference: %w", err)
	}
	return props.ChildTaus(n, tau, left), cs, nil
}

// record appends a new plan produced from the i-th by rule at path, and
// returns its index.
func (x *expansion) record(plan algebra.Node, i int, rule *rules.Rule, path algebra.Path) int {
	res := x.res
	j := len(res.Plans)
	start := len(res.paths)
	res.paths = append(res.paths, path...)
	res.Plans = append(res.Plans, plan)
	res.index[plan] = j
	res.steps = append(res.steps, step{parent: i, rule: rule, path: res.paths[start:len(res.paths):len(res.paths)]})
	return j
}

// sited is what the search memoizes for one subtree executing at one site:
// the rules matching there and, per requirement τ of the location, which of
// them the Figure 5 guard admits (bit k of admit[τ] for the k-th match)
// and what the children require (kids[τ]); bit τ of derived says both are
// known.
type sited struct {
	ms      []match
	derived uint8
	admit   [6]uint64
	kids    [6][2]equiv.Type
}

// admits reports whether the guard admits the k-th match at a location
// requiring tau. entry derives the mask for the first 64 matches, and no
// node matches more rules than that.
func (e sited) admits(tau equiv.Type, k int) bool {
	return k < 64 && e.admit[tau]&(1<<k) != 0
}

// entry returns the rules matching at n, executing at site, in rule order,
// with the guard's verdicts and the children's requirements for a location
// requiring tau. A rule reads only the subtree it matches and that
// subtree's states, which n's site fixes, and the guard reads only the
// requirements of the subtree's positions, which tau fixes besides. So all
// of it is memoized per (subtree, site): a plan sharing a subtree with an
// expanded plan reuses its matches and verdicts there. Each rewrite is
// interned once, when it is memoized.
func (x *expansion) entry(n algebra.Node, site props.Site, tau equiv.Type) (sited, error) {
	k := props.Sited{Node: n, Site: site}
	e, ok := x.memo[k]
	if !ok {
		clear(x.st)
		if err := x.states.Subtree(n, site, rules.StateDepth, x.st); err != nil {
			return e, fmt.Errorf("enum: state inference: %w", err)
		}
		for i := range x.rules {
			if rw := x.rules[i].Apply(n, x.st); rw != nil {
				rw.Result = x.intern.Intern(rw.Result)
				e.ms = append(e.ms, match{&x.rules[i], rw})
			}
		}
	}
	if e.derived&(1<<tau) == 0 {
		kids, _, err := x.childTaus(n, site, tau)
		if err != nil {
			return e, err
		}
		e.kids[tau] = kids
		if len(e.ms) > 0 {
			if err := x.positions(n, site, tau); err != nil {
				return e, err
			}
			for i, m := range e.ms[:min(len(e.ms), 64)] {
				if x.guardAllows(m) && props.DBMSOrderKept(site, tau, m.rewrite.Result.Op()) {
					e.admit[tau] |= 1 << i
				}
			}
		}
		e.derived |= 1 << tau
		ok = false
	}
	if !ok {
		x.memo[k] = e
	}
	return e, nil
}

// positions lists the positions of n's subtree down to rules.StateDepth
// below n, breadth first, n executing at site and requiring tau, with each
// position's own requirement. The children of a position above that depth
// follow one another from its kids index on.
func (x *expansion) positions(n algebra.Node, site props.Site, tau equiv.Type) error {
	x.pos = append(x.pos[:0], position{n: n, site: site, tau: tau})
	for i := 0; i < len(x.pos); i++ {
		p := x.pos[i]
		if p.depth == rules.StateDepth {
			continue
		}
		taus, cs, err := x.childTaus(p.n, p.site, p.tau)
		if err != nil {
			return err
		}
		x.pos[i].kids = len(x.pos)
		for j, c := range p.n.Children() {
			x.pos = append(x.pos, position{n: c, depth: p.depth + 1, site: cs, tau: taus[j]})
		}
	}
	return nil
}

// guardAllows implements the applicability condition of Figure 5 over the
// positions of the location's subtree: every participating operation's
// properties must permit the rule's equivalence type. Each participant is
// read at its own left-hand-side position, reached by its path from the
// location, so a node the plan shares with another position of the
// location is judged where the rule reads it.
func (x *expansion) guardAllows(m match) bool {
	for _, path := range m.rewrite.Participants {
		// A participant outside the positions listed should not happen;
		// be conservative.
		if len(path) > rules.StateDepth {
			return false
		}
		q := 0
		for _, j := range path {
			if j >= len(x.pos[q].n.Children()) {
				return false
			}
			q = x.pos[q].kids + j
		}
		if !props.Permits(m.rule.Type, x.pos[q].tau) {
			return false
		}
	}
	return true
}

// match is one rule matching at a node, with the rewrite it proposes.
type match struct {
	rule    *rules.Rule
	rewrite *rules.Rewrite
}

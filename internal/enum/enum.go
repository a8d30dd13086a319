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
// intern table (algebra.Interner), so equal subtrees are one node with a
// dense id, and every memo of the search is a slice indexed by id: the
// seen set by a root's id, the states (props.Memo), the estimates
// (cost.Model.Scorer) and the rule matches by the slot id·2+site of a
// props.Table. A rediscovered plan is an index that builds nothing, and
// each distinct (subtree, site) derives its state, cost, matches and guard
// verdicts once. The one map the search hashes is the intern table's.
// Both searches score through that memo, with Result.Score: Beam each plan
// as it finds it, since its rounds rank by score, and Enumerate's caller
// the whole closure once the fixpoint is reached.
// Canonical strings are rendered only for provenance and display
// (Result.Provenance, Result.Derivation). The guard reads each location's
// requirement τ top-down along the visit and each participant's at the
// participant's own position, which the rule names by its path from the
// location, so it is exact per position even where two equal subtrees of
// a plan are one node. Inside the DBMS it admits only rewrites that keep
// an ordered region's root a sort (props.DBMSOrderKept).
//
// The beam chases orders: when a sort-pushdown rule (S4–S10, T-sort) fires,
// the search follows the pushed sort through every further pushdown the
// guard admits, scoring each plan on the way (see Beam).
package enum

import (
	"fmt"
	"slices"
	"sync"

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
	// Scores holds each plan's score, index for index with Plans, as
	// Score records them: Beam scores each plan as it finds it, and
	// Enumerate's caller scores the closure once it is complete.
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

	// intern is the search's intern table, which handed out every plan,
	// and states the search's states memo over it.
	intern *algebra.Interner
	states *props.Memo
	// index is the search's seen set: indexed by a root's id in intern, it
	// holds the plan's position in Plans plus one (0: not a plan).
	index []int32
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

// Score scores, in order, every plan that has no score yet, through the
// search's own states memo (see cost.Model.Scorer), and records the scores
// in Scores.
func (r *Result) Score(score func(plan algebra.Node, states *props.Memo) (float64, error)) error {
	for i := len(r.Scores); i < len(r.Plans); i++ {
		s, err := score(r.Plans[i], r.states)
		if err != nil {
			return err
		}
		r.Scores = append(r.Scores, s)
	}
	return nil
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
	i, ok := r.indexOf(plan)
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

// indexOf returns the position in Plans of plan, a node the search's intern
// table handed out, and false when it is not one of Plans.
func (r *Result) indexOf(plan algebra.Node) (int, bool) {
	id, ok := r.intern.ID(plan)
	if !ok || int(id) >= len(r.index) || r.index[id] == 0 {
		return 0, false
	}
	return int(r.index[id]) - 1, true
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
	x.count()
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
	memo   *props.Table[sited]
	res    *Result
	// applied and rejected count, per rule position, the rewrites that
	// produced a plan and the matches the guard rejected; count adds them
	// to the Result's maps when the search ends.
	applied, rejected []int
	// chase follows each pushed sort down (Beam); Enumerate closes the
	// space anyway and does not.
	chase bool
	// st and pos are scratch for one location's subtree: its states, read
	// by the rules, and its positions, read by the guard.
	st  props.View
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

// defaultRules is the rule set of a Config without Rules: the
// non-expanding catalog, built once and shared, read-only, by every search.
var defaultRules = sync.OnceValue(func() []rules.Rule { return rules.NonExpanding(rules.All()) })

func newExpansion(initial algebra.Node, cfg Config) (*expansion, error) {
	if err := algebra.Validate(initial); err != nil {
		return nil, fmt.Errorf("enum: invalid initial plan: %w", err)
	}
	ruleSet := cfg.Rules
	switch {
	case ruleSet == nil && !cfg.IncludeExpanding:
		ruleSet = defaultRules()
	case ruleSet == nil:
		ruleSet = rules.All()
	case !cfg.IncludeExpanding:
		ruleSet = rules.NonExpanding(ruleSet)
	}
	intern := algebra.NewInterner()
	initial = intern.Intern(initial)
	states := props.NewMemo(intern)
	x := &expansion{
		rules:    ruleSet,
		rt:       cfg.ResultType,
		intern:   intern,
		states:   states,
		memo:     props.NewTable[sited](intern),
		applied:  make([]int, len(ruleSet)),
		rejected: make([]int, len(ruleSet)),
		res: &Result{
			Plans:  []algebra.Node{initial},
			intern: intern,
			states: states,
			steps:  make([]step, 1, 64),
		},
	}
	x.see(initial, 0)
	return x, nil
}

// see records that plan is the j-th of Plans.
func (x *expansion) see(plan algebra.Node, j int) {
	res := x.res
	id, _ := x.intern.ID(plan)
	if int(id) >= len(res.index) {
		res.index = append(res.index, make([]int32, x.intern.Len()-len(res.index))...)
	}
	res.index[id] = int32(j) + 1
}

// count fills the Result's per-rule counters from the search's.
func (x *expansion) count() {
	res := x.res
	var applied, rejected int
	for k := range x.rules {
		applied += min(x.applied[k], 1)
		rejected += min(x.rejected[k], 1)
	}
	res.Applications, res.GuardRejections = make(map[string]int, applied), make(map[string]int, rejected)
	for k := range x.rules {
		if c := x.applied[k]; c > 0 {
			res.Applications[x.rules[k].Name] += c
		}
		if c := x.rejected[k]; c > 0 {
			res.GuardRejections[x.rules[k].Name] += c
		}
	}
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
		// e moves when the memo grows: copy out what the visit reads.
		ms, admit, kids := e.ms, e.admit[tau], e.kids[tau]
		for k, m := range ms {
			if more, err := x.apply(i, m, admits(admit, k), path, found); !more || err != nil {
				return false, err
			}
		}
		cs := props.ChildSite(site, n.Op())
		for j, c := range n.Children() {
			if more, err := visit(c, cs, kids[j], append(path, j)); !more || err != nil {
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
		x.rejected[m.rule]++
		return true, nil
	}
	newPlan, err := x.intern.ReplaceAt(x.res.Plans[i], path, m.rewrite.Result)
	if err != nil {
		return false, err
	}
	x.applied[m.rule]++
	if _, seen := x.res.indexOf(newPlan); seen {
		return true, nil
	}
	// Every schema derivation propagates its children's errors, so the
	// root's schema validates the whole plan; a plan seen before was valid
	// then.
	if _, err := newPlan.Schema(); err != nil {
		return false, fmt.Errorf("enum: rule %s at %s produced invalid plan: %w", x.rules[m.rule].Name, path, err)
	}
	j := x.record(newPlan, i, &x.rules[m.rule], path)
	if more, err := found(newPlan); !more || err != nil {
		return false, err
	}
	if !x.chase || !x.rules[m.rule].PushesSort {
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
	// e moves when the memo grows: copy out what the chase reads.
	ms, admit := e.ms, e.admit[tau]
	for k, m := range ms {
		if !x.rules[m.rule].PushesSort {
			continue
		}
		if more, err := x.apply(j, m, admits(admit, k), path, found); !more || err != nil {
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
	x.see(plan, j)
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

// admits reports whether admit, a location's admit mask, admits the k-th
// match. entry derives the mask for the first 64 matches, and no node
// matches more rules than that.
func admits(admit uint64, k int) bool {
	return k < 64 && admit&(1<<k) != 0
}

// entry returns the rules matching at n, executing at site, in rule order,
// with the guard's verdicts and the children's requirements for a location
// requiring tau. A rule reads only the subtree it matches and that
// subtree's states, which n's site fixes, and the guard reads only the
// requirements of the subtree's positions, which tau fixes besides. So all
// of it is memoized per (subtree, site), in a props.Table indexed by node
// id: a plan sharing a subtree with an expanded plan reuses its matches
// and verdicts there. Each rewrite is interned once, when it is memoized.
//
// The entry is returned in place, valid until the next call, which may
// grow the memo and move it.
func (x *expansion) entry(n algebra.Node, site props.Site, tau equiv.Type) (*sited, error) {
	i, ok := x.memo.Index(n, site)
	if !ok {
		if err := x.states.Subtree(n, site, rules.StateDepth, &x.st); err != nil {
			return nil, fmt.Errorf("enum: state inference: %w", err)
		}
		var ms []match
		for k := range x.rules {
			if rw := x.rules[k].Apply(n, &x.st); rw != nil {
				rw.Result = x.intern.Intern(rw.Result)
				ms = append(ms, match{k, rw})
			}
		}
		i = x.memo.Add(n, site, sited{ms: ms})
	}
	e := x.memo.At(i)
	if e.derived&(1<<tau) == 0 {
		// Neither childTaus nor positions touches x.memo: e stays put.
		kids, _, err := x.childTaus(n, site, tau)
		if err != nil {
			return nil, err
		}
		e.kids[tau] = kids
		if len(e.ms) > 0 {
			if err := x.positions(n, site, tau); err != nil {
				return nil, err
			}
			for k, m := range e.ms[:min(len(e.ms), 64)] {
				if x.guardAllows(m) && props.DBMSOrderKept(site, tau, m.rewrite.Result.Op()) {
					e.admit[tau] |= 1 << k
				}
			}
		}
		e.derived |= 1 << tau
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
		if !props.Permits(x.rules[m.rule].Type, x.pos[q].tau) {
			return false
		}
	}
	return true
}

// match is one rule matching at a node, by its position in the search's
// rule set, with the rewrite it proposes.
type match struct {
	rule    int
	rewrite *rules.Rewrite
}

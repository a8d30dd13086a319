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
package enum

import (
	"fmt"

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
	// discovery order.
	Plans []algebra.Node
	// Scores holds each plan's score, index for index with Plans: Beam
	// records them as it scores; Enumerate does not score and leaves it to
	// the caller.
	Scores []float64
	// Provenance maps each plan's canonical form to the step that first
	// produced it (absent for the initial plan).
	Provenance map[string]Step
	// GuardRejections counts, per rule, how many syntactic matches the
	// property guard of Figure 5 rejected. Every plan is expanded once, so
	// the beam's counts cover each member's first and only expansion.
	GuardRejections map[string]int
	// Applications counts, per rule, how many times it produced a plan
	// (including rediscoveries of known plans), over the same expansions.
	Applications map[string]int
	// Expanded counts the plans whose rewrites were generated: each plan
	// Enumerate reached before any cap, each distinct beam member.
	Expanded int
	// Capped reports that MaxPlans stopped the fixpoint early.
	Capped bool
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
		err := x.expand(res.Plans[i], func(algebra.Node) (bool, error) {
			res.Capped = len(res.Plans) >= maxPlans
			return !res.Capped, nil
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// expansion is the one rewrite step Enumerate and Beam share. It derives
// states through one memo for the whole search and records every plan it
// generates, with its provenance, in one Result.
type expansion struct {
	rules  []rules.Rule
	rt     equiv.ResultType
	states *props.Memo
	memo   map[props.Sited][]match
	res    *Result
	seen   map[string]bool
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
	return &expansion{
		rules:  ruleSet,
		rt:     cfg.ResultType,
		states: props.NewMemo(),
		memo:   make(map[props.Sited][]match),
		res: &Result{
			Plans:           []algebra.Node{initial},
			Provenance:      make(map[string]Step),
			GuardRejections: make(map[string]int),
			Applications:    make(map[string]int),
		},
		seen: map[string]bool{algebra.Canonical(initial): true},
	}, nil
}

// expand applies every rule at every node of plan, in pre-order, under the
// Figure 5 guard. Each rewrite yielding a plan not seen before is appended
// to the Result with its provenance and passed to found, which returns
// false to end the expansion there.
func (x *expansion) expand(plan algebra.Node, found func(algebra.Node) (bool, error)) error {
	st, err := x.states.States(plan)
	if err != nil {
		return fmt.Errorf("enum: state inference: %w", err)
	}
	pm, err := props.Infer(plan, x.rt, st)
	if err != nil {
		return fmt.Errorf("enum: property inference: %w", err)
	}
	x.res.Expanded++
	parent := algebra.Canonical(plan)
	// visit rewrites at n, addressed by path, then at n's descendants.
	// path's backing array is reused across siblings, so a Step clones it.
	var visit func(n algebra.Node, path algebra.Path) (bool, error)
	visit = func(n algebra.Node, path algebra.Path) (bool, error) {
		for _, m := range x.matches(n, st) {
			if !guardAllows(m.rule, m.rewrite, pm) {
				x.res.GuardRejections[m.rule.Name]++
				continue
			}
			newPlan, err := algebra.ReplaceAt(plan, path, m.rewrite.Result)
			if err != nil {
				return false, err
			}
			key := algebra.Canonical(newPlan)
			if x.seen[key] {
				x.res.Applications[m.rule.Name]++
				continue
			}
			// Every schema derivation propagates its children's errors, so
			// the root's schema validates the whole plan; a plan seen
			// before was valid then.
			if _, err := newPlan.Schema(); err != nil {
				return false, fmt.Errorf("enum: rule %s at %s produced invalid plan: %w", m.rule.Name, path, err)
			}
			x.res.Applications[m.rule.Name]++
			x.seen[key] = true
			x.res.Plans = append(x.res.Plans, newPlan)
			x.res.Provenance[key] = Step{Parent: parent, Rule: m.rule.Name, RuleType: m.rule.Type, Path: path.Clone()}
			if more, err := found(newPlan); !more || err != nil {
				return false, err
			}
		}
		for i, c := range n.Children() {
			if more, err := visit(c, append(path, i)); !more || err != nil {
				return false, err
			}
		}
		return true, nil
	}
	_, err = visit(plan, make(algebra.Path, 0, 8))
	return err
}

// match is one rule matching at a node, with the rewrite it proposes.
type match struct {
	rule    *rules.Rule
	rewrite *rules.Rewrite
}

// matches returns the rules matching at n in rule order. A rule reads only
// the subtree it matches and that subtree's states, which n's site fixes,
// so the matches are memoized per (subtree, site): a plan sharing a subtree
// with an expanded plan reuses its matches there.
func (x *expansion) matches(n algebra.Node, st props.States) []match {
	k := props.Sited{Node: n, Site: st[n].Site}
	ms, ok := x.memo[k]
	if !ok {
		for i := range x.rules {
			if rw := x.rules[i].Apply(n, st); rw != nil {
				ms = append(ms, match{&x.rules[i], rw})
			}
		}
		x.memo[k] = ms
	}
	return ms
}

// guardAllows implements the applicability condition of Figure 5: every
// participating operation's properties must permit the rule's equivalence
// type.
func guardAllows(rule *rules.Rule, rewrite *rules.Rewrite, pm props.PropsMap) bool {
	for _, p := range rewrite.Participants {
		// A participant outside the current plan should not happen; be
		// conservative.
		prop, ok := pm[p]
		if !ok || !props.Applicable(rule.Type, []props.Props{prop}) {
			return false
		}
	}
	return true
}

// Derivation reconstructs the chain of steps that produced the given plan,
// earliest step first.
func (r *Result) Derivation(plan algebra.Node) []Step {
	var out []Step
	key := algebra.Canonical(plan)
	for {
		step, ok := r.Provenance[key]
		if !ok {
			break
		}
		out = append([]Step{step}, out...)
		key = step.Parent
	}
	return out
}

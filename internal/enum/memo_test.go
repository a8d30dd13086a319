package enum_test

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/cost"
	"tqp/internal/datagen"
	"tqp/internal/enum"
	"tqp/internal/equiv"
	"tqp/internal/props"
	"tqp/internal/relation"
	"tqp/internal/rules"
	"tqp/internal/testutil"
	"tqp/internal/tsql"
)

// oracleRun is what the oracle beam visited.
type oracleRun struct {
	plans      []string // canonical forms, in discovery order
	scores     []float64
	provenance map[string]enum.Step
	expansions int             // member expansions, repeats included
	members    map[string]bool // distinct members expanded
}

// oracleBeam is the beam search with nothing shared between plans, nor
// between the positions of one plan: every round expands every member, an
// unshared copy of each member and each chased plan has its states and
// properties inferred afresh, every node is reached by path, and every plan
// is costed afresh by cost.Model.Plan. It chases pushed sorts as Beam does;
// its defaults are Beam's.
func oracleBeam(t *testing.T, initial algebra.Node, rt equiv.ResultType, model *cost.Model) oracleRun {
	t.Helper()
	ruleSet := rules.NonExpanding(rules.All())
	score := func(p algebra.Node) float64 {
		es, err := model.Plan(p)
		if err != nil {
			t.Fatal(err)
		}
		return es[p].Cost
	}
	type member struct {
		plan  algebra.Node
		score float64
	}
	run := oracleRun{provenance: make(map[string]enum.Step), members: make(map[string]bool)}
	seen := map[string]bool{algebra.Canonical(initial): true}
	run.plans = append(run.plans, algebra.Canonical(initial))
	run.scores = append(run.scores, score(initial))
	beam := []member{{initial, run.scores[0]}}
	var candidates []member
	record := func(p algebra.Node, parent string, rule rules.Rule, path algebra.Path) {
		key := algebra.Canonical(p)
		seen[key] = true
		s := score(p)
		candidates = append(candidates, member{p, s})
		run.plans = append(run.plans, key)
		run.scores = append(run.scores, s)
		run.provenance[key] = enum.Step{Parent: parent, Rule: rule.Name, RuleType: rule.Type, Path: path.Clone()}
	}
	// chase follows a sort pushed to path in plan through every further
	// guarded pushdown, depth first, recording each new plan on the way.
	var chase func(plan algebra.Node, path algebra.Path)
	chase = func(plan algebra.Node, path algebra.Path) {
		plan = unshare(plan)
		n, err := algebra.NodeAt(plan, path)
		if err != nil || n.Op() != algebra.OpSort {
			return
		}
		st, err := props.InferStates(plan)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := props.Infer(plan, rt, st)
		if err != nil {
			t.Fatal(err)
		}
		parent := algebra.Canonical(plan)
		for _, rule := range ruleSet {
			if !rule.PushesSort {
				continue
			}
			rw := rule.Apply(n, st)
			if rw == nil || !oracleGuard(rule, rw, pm, st[n].Site, n) {
				continue
			}
			p, err := algebra.ReplaceAt(plan, path, rw.Result)
			if err != nil {
				t.Fatal(err)
			}
			if seen[algebra.Canonical(p)] {
				continue
			}
			record(p, parent, rule, path)
			chase(p, path.Child(0))
		}
	}
	for round := 0; round < 24; round++ {
		candidates = nil
		for _, m := range beam {
			m.plan = unshare(m.plan)
			parent := algebra.Canonical(m.plan)
			run.expansions++
			run.members[parent] = true
			st, err := props.InferStates(m.plan)
			if err != nil {
				t.Fatal(err)
			}
			pm, err := props.Infer(m.plan, rt, st)
			if err != nil {
				t.Fatal(err)
			}
			for _, path := range algebra.Paths(m.plan) {
				n, err := algebra.NodeAt(m.plan, path)
				if err != nil {
					t.Fatal(err)
				}
				for _, rule := range ruleSet {
					rw := rule.Apply(n, st)
					if rw == nil {
						continue
					}
					if !oracleGuard(rule, rw, pm, st[n].Site, n) {
						continue
					}
					p, err := algebra.ReplaceAt(m.plan, path, rw.Result)
					if err != nil {
						t.Fatal(err)
					}
					key := algebra.Canonical(p)
					if seen[key] {
						continue
					}
					record(p, parent, rule, path)
					if rule.PushesSort {
						chase(p, path.Child(0))
					}
				}
			}
		}
		if len(candidates) == 0 {
			break
		}
		candidates = append(candidates, beam...)
		sort.SliceStable(candidates, func(i, j int) bool { return candidates[i].score < candidates[j].score })
		if len(candidates) > 16 {
			candidates = candidates[:16]
		}
		beam = candidates
	}
	return run
}

// unshare copies a plan so that no two of its positions share a node: the
// oracle's properties are then those of each position, whatever subtrees
// the plan repeats.
func unshare(n algebra.Node) algebra.Node {
	if rel, ok := n.(*algebra.Rel); ok {
		return algebra.NewRel(rel.Name, rel.Sch, rel.Info)
	}
	ch := make([]algebra.Node, len(n.Children()))
	for i, c := range n.Children() {
		ch[i] = unshare(c)
	}
	return n.WithChildren(ch...)
}

// oracleGuard is Figure 5's guard — every participant's properties permit
// the rule's equivalence type — plus the DBMS's order rule at the location
// n, executing at site. n's plan is unshared, so each participant's node,
// found by its path from n, stands for its position alone.
func oracleGuard(rule rules.Rule, rw *rules.Rewrite, pm props.PropsMap, site props.Site, n algebra.Node) bool {
	if !props.DBMSOrderKept(site, pm[n].Tau, rw.Result.Op()) {
		return false
	}
	ps := make([]props.Props, len(rw.Participants))
	for i, path := range rw.Participants {
		p, err := algebra.NodeAt(n, path)
		if err != nil {
			return false
		}
		var known bool
		if ps[i], known = pm[p]; !known {
			return false
		}
	}
	return props.Applicable(rule.Type, ps)
}

// memoBeam runs Beam scored by model.Scorer and returns the search's states
// memo beside the result.
func memoBeam(t *testing.T, initial algebra.Node, rt equiv.ResultType, model *cost.Model) (*enum.Result, *props.Memo) {
	t.Helper()
	var memo *props.Memo
	score := model.Scorer()
	res, err := enum.Beam(initial, enum.BeamConfig{
		Config: enum.Config{ResultType: rt},
		Score: func(p algebra.Node, states *props.Memo) (float64, error) {
			memo = states
			return score(p, states)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, memo
}

// coldStatements plans the statement benchmark's plan.cold statements over a
// 100-employee database.
func coldStatements(t *testing.T, n int) (*catalog.Catalog, []algebra.Node, []equiv.ResultType) {
	t.Helper()
	db := datagen.EmployeeDB(datagen.EmployeeSpec{Employees: 100, SpellsPerEmp: 3, AssignmentsPerEmp: 4, Seed: 1})
	var plans []algebra.Node
	var rts []equiv.ResultType
	for _, sql := range testutil.ColdStatements(1, n) {
		q, err := tsql.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := q.Plan(db)
		if err != nil {
			t.Fatal(err)
		}
		plans, rts = append(plans, p), append(rts, q.ResultType())
	}
	return db, plans, rts
}

// TestBeamMemoMatchesOracle: the beam interns its plans, derives each
// subtree's state and cost once per search, re-expands no plan and
// memoizes rule matches and guard verdicts per subtree. None of that may
// change what it finds: against the oracle beam,
// which shares nothing between plans, it must generate the same plans in
// the same order with the same provenance and bit-identical scores, and
// its memoized states must equal fresh ones node for node. Cases: the
// paper statement, 64 plan.cold statements, random plans under several
// cost calibrations and result types, and random plans that repeat
// subtrees across branches.
func TestBeamMemoMatchesOracle(t *testing.T) {
	type tc struct {
		initial algebra.Node
		rt      equiv.ResultType
		model   *cost.Model
	}
	var cases []tc
	paper := catalog.Paper()
	for _, streaming := range []bool{false, true} {
		cases = append(cases, tc{catalog.PaperInitialPlan(paper), equiv.ResultList, cost.New(paper, cost.ParamsFor(streaming))})
	}
	db, cold, rts := coldStatements(t, 64)
	coldModel := cost.New(db, cost.ParamsFor(true))
	for i := range cold {
		cases = append(cases, tc{cold[i], rts[i], coldModel})
	}
	budgeted := cost.ParamsFor(true)
	budgeted.Parallelism, budgeted.MemoryBudget = 4, 4<<10
	random := 0
	for seed := int64(0); random < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, bases := testutil.TemporalCatalog(seed)
		params := []cost.Params{cost.DefaultParams(), cost.ParamsFor(true), budgeted}[seed%3]
		model := cost.New(c, params)
		for trial := 0; trial < 5; trial++ {
			p := testutil.RandomPlan(rng, bases, 1+rng.Intn(2))
			cases = append(cases, tc{p, equiv.ResultType(random % 3), model})
			random++
		}
	}

	// Plans that repeat subtrees across branches, where an interned plan
	// shares one node between positions with different requirements. The
	// first is \ᵀ(coalᵀ(r), r) with r = coalᵀ(rdupᵀ(A)), where C10r
	// applies: its participant r1 = r is also the location's right child.
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, bases := testutil.TemporalCatalog(seed)
		model := cost.New(c, cost.ParamsFor(true))
		r := algebra.NewCoal(algebra.NewTRdup(bases[0]))
		p := algebra.NewTDiff(algebra.NewCoal(r), r)
		if seed > 0 {
			var made []algebra.Node
			p = sharingPlan(rng, &made, bases, 4)
		}
		if algebra.Validate(p) == nil {
			cases = append(cases, tc{p, equiv.ResultType(seed % 3), model})
		}
	}

	for i, c := range cases {
		want := oracleBeam(t, c.initial, c.rt, c.model)
		res, memo := memoBeam(t, c.initial, c.rt, c.model)
		got := make([]string, len(res.Plans))
		for j, p := range res.Plans {
			got[j] = algebra.Canonical(p)
		}
		if !reflect.DeepEqual(got, want.plans) {
			t.Fatalf("case %d (%s): memoized beam found %d plans, oracle %d, or in another order",
				i, want.plans[0], len(got), len(want.plans))
		}
		if !reflect.DeepEqual(res.Provenance(), want.provenance) {
			t.Fatalf("case %d (%s): provenance differs", i, want.plans[0])
		}
		if len(res.Scores) != len(want.scores) {
			t.Fatalf("case %d: %d scores for %d plans", i, len(res.Scores), len(want.scores))
		}
		for j := range res.Scores {
			if math.Float64bits(res.Scores[j]) != math.Float64bits(want.scores[j]) {
				t.Fatalf("case %d: plan %s scored %v, oracle %v", i, got[j], res.Scores[j], want.scores[j])
			}
		}
		for _, p := range res.Plans {
			fresh, err := props.InferStates(p)
			if err != nil {
				t.Fatal(err)
			}
			memoized, err := memo.States(p)
			if err != nil {
				t.Fatal(err)
			}
			algebra.Walk(p, func(n algebra.Node, path algebra.Path) bool {
				if !reflect.DeepEqual(memoized[n], fresh[n]) {
					t.Fatalf("case %d: plan %s at %s: memoized state %+v, fresh %+v",
						i, algebra.Canonical(p), path, memoized[n], fresh[n])
				}
				return true
			})
		}
	}
}

// sharingPlan builds a random temporal plan of depth at most depth over
// bases whose leaves often reuse a subtree built before (made), so that
// equal subtrees recur across branches and at different depths.
func sharingPlan(rng *rand.Rand, made *[]algebra.Node, bases []algebra.Node, depth int) algebra.Node {
	if depth == 0 || rng.Intn(5) == 0 {
		if len(*made) > 0 && rng.Intn(2) == 0 {
			return (*made)[rng.Intn(len(*made))]
		}
		return bases[rng.Intn(len(bases))]
	}
	sub := func() algebra.Node { return sharingPlan(rng, made, bases, depth-1) }
	var n algebra.Node
	switch rng.Intn(6) {
	case 0:
		n = algebra.NewCoal(sub())
	case 1:
		n = algebra.NewTRdup(sub())
	case 2:
		n = algebra.NewSort(relation.OrderSpec{relation.Key("Name")}, sub())
	case 3:
		n = algebra.NewTDiff(sub(), sub())
	case 4:
		n = algebra.NewTUnion(sub(), sub())
	default:
		n = algebra.NewUnionAll(sub(), sub())
	}
	*made = append(*made, n)
	return n
}

// TestBeamExpandsEachPlanOnce: a beam member that survives a round was
// expanded when it entered the beam, and expanding it again could only
// rediscover plans already seen. So the beam expands each distinct member
// once: on a plan.cold statement, 77 expansions, where re-expanding every
// member each round (the oracle) makes 158. The 188 plans include those the
// order chase scores on the way down.
func TestBeamExpandsEachPlanOnce(t *testing.T) {
	db, cold, rts := coldStatements(t, 1)
	model := cost.New(db, cost.ParamsFor(true))
	want := oracleBeam(t, cold[0], rts[0], model)
	res, _ := memoBeam(t, cold[0], rts[0], model)
	if res.Expanded != len(want.members) {
		t.Errorf("beam made %d member expansions for %d distinct members", res.Expanded, len(want.members))
	}
	if len(want.members) != 77 || want.expansions != 158 || len(res.Plans) != 188 {
		t.Errorf("statement drifted: %d distinct members, %d oracle expansions, %d plans; want 77, 158, 188",
			len(want.members), want.expansions, len(res.Plans))
	}
}

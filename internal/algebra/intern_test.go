package algebra_test

import (
	"sync"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/expr"
	"tqp/internal/relation"
	"tqp/internal/value"
)

// TestInternerHashConses: the intern table hands out one node per distinct
// subtree — equal subtrees built apart, within one plan or across plans,
// come back as one pointer, an interned node interns to itself, and the
// interned tree renders exactly as the tree it stands for.
func TestInternerHashConses(t *testing.T) {
	byName := relation.OrderSpec{relation.Key("Name")}
	build := func() algebra.Node {
		left := algebra.NewSort(byName, algebra.NewTRdup(algebra.NewProjectCols(rel("R", tempSchema()), "Name", "T1", "T2")))
		right := algebra.NewSelect(expr.Compare(expr.Eq, expr.Column("Name"), expr.Literal(value.String_("a"))),
			algebra.NewProjectCols(rel("R", tempSchema()), "Name", "T1", "T2"))
		return algebra.NewTDiff(left, right)
	}
	in := algebra.NewInterner()
	lone := algebra.NewCoal(rel("S", tempSchema()))
	if in.Intern(lone) != lone {
		t.Error("a plan repeating no subtree is registered as it is")
	}
	a, b := build(), build()
	ia, ib := in.Intern(a), in.Intern(b)
	if ia != ib {
		t.Fatal("two equal plans interned to different nodes")
	}
	if in.Intern(ia) != ia {
		t.Error("an interned node must intern to itself")
	}
	if algebra.Canonical(ib) != algebra.Canonical(b) {
		t.Errorf("interned plan renders %s, want %s", algebra.Canonical(ib), algebra.Canonical(b))
	}
	// π(R) occurs twice in the plan, once under rdupᵀ and once under σ: one
	// node after interning.
	underRdup := ia.Children()[0].Children()[0].Children()[0]
	underSelect := ia.Children()[1].Children()[0]
	if underRdup != underSelect {
		t.Error("equal subtrees of one plan must be one node")
	}
	// A differing payload is a different node.
	other := in.Intern(algebra.NewSort(relation.OrderSpec{relation.KeyDesc("Name")}, ia.Children()[0].Children()[0]))
	if other == ia.Children()[0] {
		t.Error("sorts on different specs must not be one node")
	}
}

// TestInternerReplaceAt: ReplaceAt over interned nodes builds the same tree
// algebra.ReplaceAt builds, interned; rebuilding a plan already known
// returns its node.
func TestInternerReplaceAt(t *testing.T) {
	in := algebra.NewInterner()
	byName := relation.OrderSpec{relation.Key("Name")}
	base := algebra.NewProjectCols(rel("R", tempSchema()), "Name", "T1", "T2")
	plan := in.Intern(algebra.NewCoal(algebra.NewSort(byName, algebra.NewTRdup(base))))
	pushed := in.Intern(algebra.NewTRdup(algebra.NewSort(byName, base)))
	got, err := in.ReplaceAt(plan, algebra.Path{0}, pushed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := algebra.ReplaceAt(plan, algebra.Path{0}, pushed)
	if err != nil {
		t.Fatal(err)
	}
	if algebra.Canonical(got) != algebra.Canonical(want) {
		t.Fatalf("ReplaceAt built %s, want %s", algebra.Canonical(got), algebra.Canonical(want))
	}
	if got.Label() != want.Label() || got.Children()[0] != pushed {
		t.Error("the rebuilt spine must carry the template's operator over the interned replacement")
	}
	again, err := in.ReplaceAt(plan, algebra.Path{0}, pushed)
	if err != nil || again != got {
		t.Errorf("rebuilding a known plan must return its node (err=%v)", err)
	}
	if in.Intern(want) != got {
		t.Error("the uninterned equal tree must intern to the same node")
	}
	if _, err := in.ReplaceAt(plan, algebra.Path{3}, pushed); err == nil {
		t.Error("a path leaving the tree must fail")
	}
}

// TestInternerOwnership: an intern table numbers the nodes it hands out
// densely, 0 to Len()-1, and a node belongs to the first table that
// registered it. Another table interning that node rebuilds an equal node
// of its own and leaves the first table's id alone, and two searches
// interning one shared plan at once race on nothing.
func TestInternerOwnership(t *testing.T) {
	byName := relation.OrderSpec{relation.Key("Name")}
	build := func() algebra.Node {
		base := algebra.NewProjectCols(rel("R", tempSchema()), "Name", "T1", "T2")
		return algebra.NewTDiff(algebra.NewSort(byName, algebra.NewTRdup(base)), algebra.NewCoal(base))
	}
	first := algebra.NewInterner()
	plan := first.Intern(build())
	ids := map[int32]algebra.Node{}
	algebra.Walk(plan, func(n algebra.Node, _ algebra.Path) bool {
		id, ok := first.ID(n)
		if !ok {
			t.Fatalf("%s: an interned node has no id", n.Label())
		}
		ids[id] = n
		return true
	})
	if len(ids) != first.Len() {
		t.Fatalf("%d distinct ids for %d nodes", len(ids), first.Len())
	}
	for id := range ids {
		if id < 0 || int(id) >= first.Len() {
			t.Errorf("id %d outside 0..%d", id, first.Len()-1)
		}
	}
	rootID, _ := first.ID(plan)

	second := algebra.NewInterner()
	again := second.Intern(plan)
	if again == plan {
		t.Fatal("a node another table owns must be rebuilt, not relabelled")
	}
	if algebra.Canonical(again) != algebra.Canonical(plan) {
		t.Errorf("rebuilt %s, want %s", algebra.Canonical(again), algebra.Canonical(plan))
	}
	if id, ok := first.ID(plan); !ok || id != rootID {
		t.Errorf("the owner's id moved from %d to %d (owned %v)", rootID, id, ok)
	}
	if _, ok := second.ID(plan); ok {
		t.Error("the second table must not claim the first table's node")
	}
	if _, ok := first.ID(again); ok {
		t.Error("the first table must not know the second table's rebuild")
	}
	if second.Intern(again) != again {
		t.Error("a node the table owns must intern to itself")
	}

	shared := build()
	var wg sync.WaitGroup
	got := make([]algebra.Node, 2)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			in := algebra.NewInterner()
			got[g] = in.Intern(shared)
			if _, ok := in.ID(got[g]); !ok {
				t.Error("an interned node has no id in its table")
			}
		}(g)
	}
	wg.Wait()
	if got[0] == got[1] {
		t.Error("two tables must not hand out one node")
	}
	if algebra.Canonical(got[0]) != algebra.Canonical(got[1]) {
		t.Error("two tables interned one plan to different trees")
	}
}

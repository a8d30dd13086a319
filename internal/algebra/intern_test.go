package algebra_test

import (
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

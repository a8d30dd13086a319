package algebra_test

import (
	"strings"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/expr"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

func tempSchema() *schema.Schema {
	return schema.MustNew(
		schema.Attr("Name", value.KindString),
		schema.Attr("Grp", value.KindInt),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime),
	)
}

func snapSchema() *schema.Schema {
	return schema.MustNew(
		schema.Attr("Name", value.KindString),
		schema.Attr("Grp", value.KindInt),
	)
}

func rel(name string, s *schema.Schema) algebra.Node {
	return algebra.NewRel(name, s, algebra.BaseInfo{})
}

func TestSchemaDerivation(t *testing.T) {
	ts, ss := tempSchema(), snapSchema()
	pred := expr.Compare(expr.Lt, expr.Column("Grp"), expr.Literal(value.Int(3)))
	aggs := []expr.Aggregate{{Func: expr.CountAll, As: "cnt"}}

	cases := []struct {
		name     string
		node     algebra.Node
		temporal bool
		attrs    []string
		ok       bool
	}{
		{"select", algebra.NewSelect(pred, rel("T", ts)), true,
			[]string{"Name", "Grp", "T1", "T2"}, true},
		{"select bad attr", algebra.NewSelect(
			expr.Compare(expr.Eq, expr.Column("Zed"), expr.Literal(value.Int(1))),
			rel("T", ts)), false, nil, false},
		{"project to snapshot", algebra.NewProjectCols(rel("T", ts), "Name", "Grp"), false,
			[]string{"Name", "Grp"}, true},
		{"project keeps periods", algebra.NewProjectCols(rel("T", ts), "Name", "T1", "T2"), true,
			[]string{"Name", "T1", "T2"}, true},
		{"rdup on temporal renames", algebra.NewRdup(rel("T", ts)), false,
			[]string{"Name", "Grp", "1.T1", "1.T2"}, true},
		{"rdupT keeps schema", algebra.NewTRdup(rel("T", ts)), true,
			[]string{"Name", "Grp", "T1", "T2"}, true},
		{"rdupT on snapshot fails", algebra.NewTRdup(rel("S", ss)), false, nil, false},
		{"coal on snapshot fails", algebra.NewCoal(rel("S", ss)), false, nil, false},
		{"product qualifies clashes", algebra.NewProduct(rel("S", ss), rel("S2", ss)), false,
			[]string{"1.Name", "1.Grp", "2.Name", "2.Grp"}, true},
		{"temporal product appends fresh period",
			algebra.NewTProduct(rel("A", ts), rel("B", ts)), true,
			[]string{"1.Name", "1.Grp", "1.T1", "1.T2", "2.Name", "2.Grp", "2.T1", "2.T2", "T1", "T2"}, true},
		{"tproduct needs temporal args", algebra.NewTProduct(rel("S", ss), rel("A", ts)), false, nil, false},
		{"diff equal schemas", algebra.NewDiff(rel("A", ss), rel("B", ss)), false,
			[]string{"Name", "Grp"}, true},
		{"diff on temporal qualifies", algebra.NewDiff(rel("A", ts), rel("B", ts)), false,
			[]string{"Name", "Grp", "1.T1", "1.T2"}, true},
		{"diff unequal schemas", algebra.NewDiff(rel("A", ss), rel("B", ts)), false, nil, false},
		{"tdiff", algebra.NewTDiff(rel("A", ts), rel("B", ts)), true,
			[]string{"Name", "Grp", "T1", "T2"}, true},
		{"union all", algebra.NewUnionAll(rel("A", ts), rel("B", ts)), true,
			[]string{"Name", "Grp", "T1", "T2"}, true},
		{"tunion needs temporal", algebra.NewTUnion(rel("A", ss), rel("B", ss)), false, nil, false},
		{"aggregate", algebra.NewAggregate([]string{"Name"}, aggs, rel("T", ts)), false,
			[]string{"Name", "cnt"}, true},
		{"aggregate groups on time -> qualified",
			algebra.NewAggregate([]string{"T1"}, aggs, rel("T", ts)), false,
			[]string{"1.T1", "cnt"}, true},
		{"taggregate", algebra.NewTAggregate([]string{"Name"}, aggs, rel("T", ts)), true,
			[]string{"Name", "cnt", "T1", "T2"}, true},
		{"taggregate cannot group on time",
			algebra.NewTAggregate([]string{"T1"}, aggs, rel("T", ts)), false, nil, false},
		{"sort validates keys", algebra.NewSort(relation.OrderSpec{relation.Key("Zed")}, rel("T", ts)),
			false, nil, false},
		{"join is select over product",
			algebra.NewJoin(expr.Compare(expr.Eq, expr.Column("1.Name"), expr.Column("2.Name")),
				rel("S", ss), rel("S2", ss)), false,
			[]string{"1.Name", "1.Grp", "2.Name", "2.Grp"}, true},
	}
	for _, c := range cases {
		s, err := c.node.Schema()
		if (err == nil) != c.ok {
			t.Errorf("%s: err=%v, want ok=%v", c.name, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		if s.Temporal() != c.temporal {
			t.Errorf("%s: temporal=%v, want %v (%s)", c.name, s.Temporal(), c.temporal, s)
		}
		if len(c.attrs) != s.Len() {
			t.Errorf("%s: schema %s, want attrs %v", c.name, s, c.attrs)
			continue
		}
		for i, want := range c.attrs {
			if s.At(i).Name != want {
				t.Errorf("%s: attr %d = %s, want %s", c.name, i, s.At(i).Name, want)
			}
		}
	}
}

func TestPathsAndReplace(t *testing.T) {
	ts := tempSchema()
	plan := algebra.NewTDiff(
		algebra.NewTRdup(rel("A", ts)),
		algebra.NewProjectCols(rel("B", ts), "Name", "Grp", "T1", "T2"))

	paths := algebra.Paths(plan)
	if len(paths) != 5 {
		t.Fatalf("Paths = %d, want 5", len(paths))
	}
	if algebra.Count(plan) != 5 {
		t.Error("Count")
	}

	n, err := algebra.NodeAt(plan, algebra.Path{0, 0})
	if err != nil || n.Label() != "A" {
		t.Fatalf("NodeAt(0,0) = %v, %v", n, err)
	}
	if _, err := algebra.NodeAt(plan, algebra.Path{3}); err == nil {
		t.Error("invalid path should fail")
	}

	repl, err := algebra.ReplaceAt(plan, algebra.Path{0}, rel("C", ts))
	if err != nil {
		t.Fatal(err)
	}
	if got := algebra.Canonical(repl); !strings.HasPrefix(got, "diffT(C,") {
		t.Errorf("ReplaceAt result: %s", got)
	}
	// The original is untouched (persistent trees).
	if got := algebra.Canonical(plan); !strings.HasPrefix(got, "diffT(rdupT(A)") {
		t.Errorf("original mutated: %s", got)
	}
	// Path strings.
	if (algebra.Path{}).String() != "ε" || (algebra.Path{1, 0}).String() != "1.0" {
		t.Error("Path.String")
	}
}

func TestCanonicalAndEqual(t *testing.T) {
	ts := tempSchema()
	a := algebra.NewTRdup(rel("A", ts))
	b := algebra.NewTRdup(rel("A", ts))
	c := algebra.NewTRdup(rel("B", ts))
	if algebra.Canonical(a) != algebra.Canonical(b) {
		t.Error("structurally equal trees must share canonical forms")
	}
	if algebra.Canonical(a) == algebra.Canonical(c) {
		t.Error("different trees must differ")
	}
	// The intern table decides Canonical's equality without rendering.
	in := algebra.NewInterner()
	if in.Intern(a) != in.Intern(b) || in.Intern(a) == in.Intern(c) {
		t.Error("the intern table must hand out one node per canonical form")
	}
	srt := algebra.NewSort(relation.OrderSpec{relation.Key("Name")}, rel("A", ts))
	if !strings.Contains(algebra.Canonical(srt), "sort{Name ASC}") {
		t.Errorf("sort canonical: %s", algebra.Canonical(srt))
	}
}

func TestValidate(t *testing.T) {
	ts := tempSchema()
	ok := algebra.NewTRdup(rel("A", ts))
	if err := algebra.Validate(ok); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	bad := algebra.NewTRdup(algebra.NewProjectCols(rel("A", ts), "Name"))
	if err := algebra.Validate(bad); err == nil {
		t.Error("rdupT over a snapshot projection must fail validation")
	}
}

func TestRenderAnnotated(t *testing.T) {
	ts := tempSchema()
	plan := algebra.NewCoal(algebra.NewTRdup(rel("A", ts)))
	out := algebra.Render(plan, func(n algebra.Node, p algebra.Path) string { return "@" + p.String() })
	want := "coalT  @ε\n  rdupT  @0\n    A  @0.0\n"
	if out != want {
		t.Errorf("Render:\n%q\nwant\n%q", out, want)
	}
}

func TestJoinExpand(t *testing.T) {
	ts := tempSchema()
	p := expr.Compare(expr.Eq, expr.Column("1.Name"), expr.Column("2.Name"))
	j := algebra.NewTJoin(p, rel("A", ts), rel("B", ts))
	exp := j.Expand()
	if exp.Op() != algebra.OpSelect || exp.Children()[0].Op() != algebra.OpTProduct {
		t.Errorf("TJoin expansion: %s", algebra.Canonical(exp))
	}
	js, err := j.Schema()
	if err != nil {
		t.Fatal(err)
	}
	es, err := exp.Schema()
	if err != nil {
		t.Fatal(err)
	}
	if !js.Equal(es) {
		t.Error("idiom and expansion schemas must agree")
	}
}

func TestOpMetadata(t *testing.T) {
	if algebra.OpTDiff.ConventionalCounterpart() != algebra.OpDiff {
		t.Error("counterpart")
	}
	if algebra.OpSelect.ConventionalCounterpart() != algebra.OpInvalid {
		t.Error("σ has no counterpart")
	}
	if !algebra.OpCoal.Temporal() || algebra.OpCoal.SnapshotReducible() {
		t.Error("coalT is temporal but deliberately not snapshot-reducible")
	}
	if algebra.OpTDiff.Arity() != 2 || algebra.OpRel.Arity() != 0 || algebra.OpSort.Arity() != 1 {
		t.Error("arity")
	}
}

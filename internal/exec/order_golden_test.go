package exec_test

import (
	"fmt"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/datagen"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/expr"
	"tqp/internal/props"
	"tqp/internal/relation"
	"tqp/internal/value"
)

// TestOrderPropagationMatrix is the golden pin of Table 1's Order column:
// for every operator × input-order case, the order the static inference
// derives (props.State.Order), the order the reference evaluator records
// and the order the exec engine's compiled pipeline reports must be one and
// the same spec. All three read the one props.OrderOf, so their agreement
// pins only what each hands it; the independent checks are that the result
// list actually satisfies the spec (SortedBy here, and every static claim in
// props' TestStateSoundness) and a hand-written golden sub-table pinning
// the distinctive rows (prefix-keeping sorts, time qualification, time-free
// prefixes, grouping prefixes, product qualification) against literal
// expected specs, so a wrong rule cannot slip through.
func TestOrderPropagationMatrix(t *testing.T) {
	base := datagen.Temporal(datagen.TemporalSpec{
		Rows: 10, Values: 3, DupFrac: 0.3, AdjFrac: 0.3, TimeRange: 40, MaxPeriod: 8, Seed: 9,
	})
	inputOrders := []struct {
		name string
		spec relation.OrderSpec
	}{
		{"unordered", nil},
		{"name", relation.OrderSpec{relation.Key("Name")}},
		{"name-grp", relation.OrderSpec{relation.Key("Name"), relation.Key("Grp")}},
		{"t1", relation.OrderSpec{relation.Key("T1")}},
		{"grp-desc", relation.OrderSpec{relation.KeyDesc("Grp")}},
	}

	src := make(eval.MapSource)
	leaves := map[string]algebra.Node{}
	for _, in := range inputOrders {
		for _, side := range []string{"L", "R"} {
			r := base.Clone()
			info := algebra.BaseInfo{Order: in.spec}
			if !in.spec.Empty() {
				if err := r.SortStable(in.spec); err != nil {
					t.Fatal(err)
				}
			}
			name := side + "-" + in.name
			src[name] = r
			leaves[name] = algebra.NewRel(name, r.Schema(), info)
		}
	}

	pred := expr.Compare(expr.Lt, expr.Column("Grp"), expr.Literal(value.Int(2)))
	aggs := []expr.Aggregate{{Func: expr.CountAll, As: "cnt"}}
	byGrp := relation.OrderSpec{relation.Key("Grp")}
	byName := relation.OrderSpec{relation.Key("Name")}
	ops := []struct {
		name  string
		build func(l, r algebra.Node) algebra.Node
	}{
		{"select", func(l, _ algebra.Node) algebra.Node { return algebra.NewSelect(pred, l) }},
		{"project-all", func(l, _ algebra.Node) algebra.Node {
			return algebra.NewProjectCols(l, "Name", "Grp", "T1", "T2")
		}},
		{"project-value", func(l, _ algebra.Node) algebra.Node { return algebra.NewProjectCols(l, "Name", "Grp") }},
		{"sort-grp", func(l, _ algebra.Node) algebra.Node { return algebra.NewSort(byGrp, l) }},
		{"sort-name", func(l, _ algebra.Node) algebra.Node { return algebra.NewSort(byName, l) }},
		{"rdup", func(l, _ algebra.Node) algebra.Node { return algebra.NewRdup(l) }},
		{"rdupT", func(l, _ algebra.Node) algebra.Node { return algebra.NewTRdup(l) }},
		{"coalT", func(l, _ algebra.Node) algebra.Node { return algebra.NewCoal(l) }},
		{"aggr", func(l, _ algebra.Node) algebra.Node {
			return algebra.NewAggregate([]string{"Name", "Grp"}, aggs, l)
		}},
		{"aggrT", func(l, _ algebra.Node) algebra.Node { return algebra.NewTAggregate([]string{"Name"}, aggs, l) }},
		{"unionall", algebra.NewUnionAll},
		{"union", algebra.NewUnion},
		{"unionT", algebra.NewTUnion},
		{"diff", algebra.NewDiff},
		{"diffT", algebra.NewTDiff},
		{"product", algebra.NewProduct},
		{"productT", algebra.NewTProduct},
		{"join", func(l, r algebra.Node) algebra.Node {
			return algebra.NewJoin(expr.Compare(expr.Eq, expr.Column("1.Grp"), expr.Column("2.Grp")), l, r)
		}},
		{"joinT", func(l, r algebra.Node) algebra.Node {
			return algebra.NewTJoin(expr.Compare(expr.Eq, expr.Column("1.Name"), expr.Column("2.Name")), l, r)
		}},
	}

	// The golden sub-table: "op/input-order" → expected delivered order.
	golden := map[string]string{
		"select/name-grp":    "⟨Name ASC, Grp ASC⟩", // σ retains order
		"project-all/t1":     "⟨T1 ASC⟩",            // identity projection keeps time keys
		"project-value/name": "⟨Name ASC⟩",          // prefix survives the projection
		"project-value/t1":   "⟨⟩",                  // dropped attribute ends the prefix
		"sort-grp/name-grp":  "⟨Grp ASC⟩",           // not a prefix: new order
		"sort-grp/grp-desc":  "⟨Grp ASC⟩",           // direction matters
		"sort-name/name-grp": "⟨Name ASC, Grp ASC⟩", // prefix: the stronger order survives
		"rdup/t1":            "⟨1.T1 ASC⟩",          // snapshot result qualifies time keys
		"rdup/name":          "⟨Name ASC⟩",          // first occurrence survives: order retained
		"rdupT/name-grp":     "⟨Name ASC, Grp ASC⟩", // time-free prefix is the whole spec
		"rdupT/t1":           "⟨⟩",                  // periods change: time keys do not survive
		"coalT/name":         "⟨Name ASC⟩",          // time-free prefix
		"aggr/name":          "⟨Name ASC⟩",          // Prefix(order, group attrs)
		"aggr/grp-desc":      "⟨Grp DESC⟩",          // grouping keeps directions
		"aggrT/name-grp":     "⟨Name ASC⟩",          // Grp not grouped: prefix stops
		"unionall/name-grp":  "⟨⟩",                  // ⊔ is unordered
		"union/name-grp":     "⟨⟩",                  // ∪ is unordered
		"unionT/name-grp":    "⟨⟩",                  // ∪ᵀ is unordered
		"diff/t1":            "⟨1.T1 ASC⟩",          // left order, time keys qualified
		"diffT/name-grp":     "⟨Name ASC, Grp ASC⟩", // left time-free prefix
		"diffT/t1":           "⟨⟩",                  // fragments break time order
		"product/name":       "⟨1.Name ASC⟩",        // clashing attrs qualified "1."
		"productT/name-grp":  "⟨1.Name ASC, 1.Grp ASC⟩",
		"productT/t1":        "⟨⟩", // ×ᵀ: time-free prefix first
		"join/grp-desc":      "⟨1.Grp DESC⟩",
		"joinT/name":         "⟨1.Name ASC⟩",
	}

	checked := 0
	for _, op := range ops {
		for _, in := range inputOrders {
			key := fmt.Sprintf("%s/%s", op.name, in.name)
			plan := op.build(leaves["L-"+in.name], leaves["R-name"])
			st, err := props.InferStates(plan)
			if err != nil {
				t.Fatalf("%s: infer states: %v", key, err)
			}
			static := st[plan].Order

			want, err := eval.New(src).Eval(plan)
			if err != nil {
				t.Fatalf("%s: reference eval: %v", key, err)
			}
			got, err := exec.New(src).Eval(plan)
			if err != nil {
				t.Fatalf("%s: exec eval: %v", key, err)
			}
			if !got.Order().Equal(static) {
				t.Errorf("%s: engine delivers %s, props derives %s", key, got.Order(), static)
			}
			if !want.Order().Equal(static) {
				t.Errorf("%s: reference delivers %s, props derives %s", key, want.Order(), static)
			}
			if !got.SortedBy(got.Order()) {
				t.Errorf("%s: engine claims %s but the list is not sorted", key, got.Order())
			}
			if !got.EqualAsList(want) {
				t.Errorf("%s: engine result differs from reference", key)
			}
			if exp, ok := golden[key]; ok {
				checked++
				if got.Order().String() != exp {
					t.Errorf("%s: delivered order %s, golden table says %s", key, got.Order(), exp)
				}
			}
		}
	}
	if checked != len(golden) {
		t.Fatalf("golden sub-table mismatch: %d of %d entries checked (stale key?)", checked, len(golden))
	}
}

package server

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/expr"
	"tqp/internal/relation"
	"tqp/internal/value"
)

// TestPartialPlanRoundTrip pins the fragment wire codec: a plan touching
// every fragment operator and every predicate/expression grammar node
// survives EncodePlan → JSON → DecodePlan as an equal plan, and re-encodes
// to an identical wire form.
func TestPartialPlanRoundTrip(t *testing.T) {
	var plan algebra.Node = algebra.NewRel("EMPLOYEE", nil, algebra.BaseInfo{})
	plan = algebra.NewSelect(expr.Conj(
		expr.Disj(
			expr.Compare(expr.Ge, expr.Column("T1"), expr.Literal(value.Int(10))),
			expr.Neg(expr.Compare(expr.Ne, expr.Column("Dept"), expr.Literal(value.String_("Ship")))),
		),
		expr.PeriodPred{
			Op:     expr.POverlaps,
			AStart: expr.Column("T1"), AEnd: expr.Column("T2"),
			BStart: expr.Literal(value.Int(5)),
			BEnd:   expr.Arith{Op: expr.Add, L: expr.Column("T1"), R: expr.Literal(value.Int(7))},
		},
	), plan)
	plan = algebra.NewSelect(expr.TruePred{}, plan)
	plan = algebra.NewProject([]algebra.ProjItem{
		algebra.ColItem("EmpName"),
		{Expr: expr.Arith{Op: expr.Mul, L: expr.Column("T2"), R: expr.Literal(value.Int(2))}, As: "Til"},
	}, plan)
	plan = algebra.NewSort(relation.OrderSpec{relation.Key("EmpName"), relation.KeyDesc("Til")}, plan)
	plan = algebra.NewCoal(plan)
	plan = algebra.NewTRdup(plan)
	plan = algebra.NewAggregate([]string{"Dept"}, []expr.Aggregate{
		{Func: expr.CountAll, As: "n"},
		{Func: expr.Sum, Arg: "T1", As: "total"},
	}, plan)
	wire, err := EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	var back WirePlan
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodePlan(&back)
	if err != nil {
		t.Fatal(err)
	}
	if algebra.Canonical(decoded) != algebra.Canonical(plan) {
		t.Fatalf("decoded plan differs\nsent: %s\ngot:  %s", algebra.Canonical(plan), algebra.Canonical(decoded))
	}
	again, err := EncodePlan(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wire, again) {
		t.Fatalf("round trip is not a fixed point\nfirst:  %+v\nsecond: %+v", wire, again)
	}
	if _, err := EncodePlan(algebra.NewTransferS(plan)); err == nil {
		t.Fatal("a transfer encoded as a fragment operator")
	}
}

// TestPartialPlanDecodeRejects pins the codec's typed rejections: a
// malformed wire plan fails decoding instead of producing a bogus plan.
func TestPartialPlanDecodeRejects(t *testing.T) {
	rel := &WirePlan{Op: "rel", Rel: "R"}
	over := func(w WirePlan) *WirePlan { w.In = []*WirePlan{rel}; return &w }
	for name, p := range map[string]*WirePlan{
		"nil plan":        nil,
		"no relation":     {Op: "coalT", In: []*WirePlan{{Op: "rel"}}},
		"unknown op":      over(WirePlan{Op: "zigzag"}),
		"transfer":        over(WirePlan{Op: "TS"}),
		"leaf with input": {Op: "rel", Rel: "R", In: []*WirePlan{rel}},
		"missing input":   {Op: "rdupT"},
		"nil input":       {Op: "rdupT", In: []*WirePlan{nil}},
		"empty project":   over(WirePlan{Op: "project"}),
		"keyless sort":    over(WirePlan{Op: "sort"}),
		"predless select": over(WirePlan{Op: "select"}),
		"bad cmp op": over(WirePlan{Op: "select", Pred: &WirePred{
			Node: "cmp", Op: "≈", LX: &WireExpr{Node: "col", Name: "a"}, RX: &WireExpr{Node: "col", Name: "b"},
		}}),
		"bad literal kind": over(WirePlan{Op: "select", Pred: &WirePred{
			Node: "cmp", Op: "=", LX: &WireExpr{Node: "lit", Kind: "blob", Val: "x"}, RX: &WireExpr{Node: "col", Name: "b"},
		}}),
		"bad agg func": over(WirePlan{Op: "aggr", Aggs: []WireAgg{{Func: "MEDIAN", As: "m"}}}),
		"short period": over(WirePlan{Op: "select", Pred: &WirePred{
			Node: "period", Op: "OVERLAPS", Args: []*WireExpr{{Node: "col", Name: "a"}},
		}}),
	} {
		if _, err := DecodePlan(p); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestPartialKeysOnlyWithProvenance pins Client.Partial's key contract: a
// fragment whose rows keep their provenance (a scan, σ, π, sort) answers
// with non-nil keys, one per row, even when no row qualifies; a fragment
// whose group operation consumed the provenance answers with nil keys,
// even when it has rows.
func TestPartialKeysOnlyWithProvenance(t *testing.T) {
	srv := startServer(t, Config{Catalog: catalog.Paper()})
	cl, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	emp := algebra.NewRel("EMPLOYEE", nil, algebra.BaseInfo{})
	nobody := algebra.NewSelect(expr.Compare(expr.Eq, expr.Column("Dept"), expr.Literal(value.String_("Nowhere"))), emp)
	for _, tc := range []struct {
		name  string
		plan  algebra.Node
		keyed bool
		empty bool
	}{
		{"scan", emp, true, false},
		{"sorted chain", algebra.NewSort(relation.OrderSpec{relation.Key("EmpName")}, emp), true, false},
		{"empty chain", nobody, true, true},
		{"grouped", algebra.NewCoal(emp), false, false},
		{"empty grouped", algebra.NewCoal(nobody), false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire, err := EncodePlan(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			rel, keys, err := cl.Partial(context.Background(), wire)
			if err != nil {
				t.Fatal(err)
			}
			if (rel.Len() == 0) != tc.empty {
				t.Fatalf("%d rows, want empty=%v", rel.Len(), tc.empty)
			}
			if (keys != nil) != tc.keyed {
				t.Fatalf("keys %v (nil=%v), want keyed=%v", keys, keys == nil, tc.keyed)
			}
			if tc.keyed && len(keys) != rel.Len() {
				t.Fatalf("%d keys for %d rows", len(keys), rel.Len())
			}
		})
	}
}

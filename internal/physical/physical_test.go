package physical_test

import (
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/expr"
	"tqp/internal/physical"
	"tqp/internal/props"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

func temporalSchema() *schema.Schema {
	return schema.MustNew(
		schema.Attr("Name", value.KindString),
		schema.Attr("Grp", value.KindInt),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime))
}

// delivered is the states of inputs that deliver the orders ords and claim
// nothing else.
func delivered(ords []relation.OrderSpec) []props.State {
	out := make([]props.State, len(ords))
	for i, o := range ords {
		out[i].Order = o
	}
	return out
}

func leafWithOrder(name string, o relation.OrderSpec) algebra.Node {
	return algebra.NewRel(name, temporalSchema(), algebra.BaseInfo{Order: o})
}

var (
	byName    = relation.OrderSpec{relation.Key("Name")}
	byNameGrp = relation.OrderSpec{relation.Key("Name"), relation.Key("Grp")}
	byGrpDesc = relation.OrderSpec{relation.KeyDesc("Grp")}
	byAll     = relation.OrderSpec{
		relation.Key("Name"), relation.Key("Grp"), relation.Key("T1"), relation.Key("T2"),
	}
)

// TestDecideSort pins the elision predicate.
func TestDecideSort(t *testing.T) {
	l := leafWithOrder("L", nil)
	cases := []struct {
		spec, in relation.OrderSpec
		elided   bool
	}{
		{byName, byNameGrp, true},    // prefix: elide
		{byNameGrp, byNameGrp, true}, // equal: elide
		{byNameGrp, byName, false},   // stronger than delivered: sort
		{byName, nil, false},         // unordered input: sort
		{byGrpDesc, byNameGrp, false},
	}
	for _, c := range cases {
		d := physical.Decide(algebra.NewSort(c.spec, l), delivered([]relation.OrderSpec{c.in}), physical.Shape{})
		if d.SortElided != c.elided {
			t.Errorf("sort %s over %s: elided=%v, want %v", c.spec, c.in, d.SortElided, c.elided)
		}
	}
}

// TestDecideJoin pins merge-join applicability: key-covering aligned orders
// on both sides, with direction and pairing checked.
func TestDecideJoin(t *testing.T) {
	eq := expr.Compare(expr.Eq, expr.Column("1.Name"), expr.Column("2.Name"))
	mk := func(lo, ro relation.OrderSpec) physical.Decision {
		j := algebra.NewTJoin(eq, leafWithOrder("L", lo), leafWithOrder("R", ro))
		return physical.Decide(j, delivered([]relation.OrderSpec{lo, ro}), physical.Shape{})
	}
	if d := mk(byName, byName); d.Algo != physical.AlgoMergeJoin || !d.Merge {
		t.Errorf("both sides key-ordered: got %s", d.Algo)
	}
	// A longer left order still has the key-covering prefix ⟨Name⟩.
	if d := mk(byNameGrp, byName); d.Algo != physical.AlgoMergeJoin {
		t.Errorf("left ⟨Name,Grp⟩, right ⟨Name⟩: got %s", d.Algo)
	}
	if d := mk(byName, nil); d.Algo != physical.AlgoHashJoin {
		t.Errorf("unordered right side: got %s", d.Algo)
	}
	if d := mk(byName, relation.OrderSpec{relation.KeyDesc("Name")}); d.Algo != physical.AlgoHashJoin {
		t.Errorf("direction mismatch must fall back to hash: got %s", d.Algo)
	}
	if d := mk(byGrpDesc, byName); d.Algo != physical.AlgoHashJoin {
		t.Errorf("left order not key-covering: got %s", d.Algo)
	}
	theta := algebra.NewTJoin(
		expr.Compare(expr.Lt, expr.Column("1.Grp"), expr.Column("2.Grp")),
		leafWithOrder("L", byName), leafWithOrder("R", byName))
	if d := physical.Decide(theta, delivered([]relation.OrderSpec{byName, byName}), physical.Shape{}); d.Algo != physical.AlgoNestedLoop {
		t.Errorf("theta join: got %s", d.Algo)
	}
}

// TestDecideGroupingAndSets pins the contiguity- and alignment-based
// decisions of the unary grouping operators and the multiset operations.
func TestDecideGroupingAndSets(t *testing.T) {
	lv := leafWithOrder("L", nil)
	rv := leafWithOrder("R", nil)
	cases := []struct {
		name   string
		plan   algebra.Node
		orders []relation.OrderSpec
		want   physical.Algo
	}{
		{"rdupT sorted on values", algebra.NewTRdup(lv), []relation.OrderSpec{byNameGrp}, physical.AlgoMergeGroup},
		{"rdupT sorted on prefix only", algebra.NewTRdup(lv), []relation.OrderSpec{byName}, physical.AlgoHashGroup},
		{"coalT unordered", algebra.NewCoal(lv), []relation.OrderSpec{nil}, physical.AlgoHashGroup},
		{"aggrT grouped on order prefix",
			algebra.NewTAggregate([]string{"Name"}, []expr.Aggregate{{Func: expr.CountAll, As: "c"}}, lv),
			[]relation.OrderSpec{byNameGrp}, physical.AlgoMergeGroup},
		{"rdup total order", algebra.NewRdup(lv), []relation.OrderSpec{byAll}, physical.AlgoMergeDedup},
		{"rdup partial order", algebra.NewRdup(lv), []relation.OrderSpec{byNameGrp}, physical.AlgoHashDedup},
		{"diff aligned", algebra.NewDiff(lv, rv), []relation.OrderSpec{byAll, byAll}, physical.AlgoMergeDiff},
		{"diff one-sided", algebra.NewDiff(lv, rv), []relation.OrderSpec{byAll, nil}, physical.AlgoHashDiff},
		{"union aligned", algebra.NewUnion(lv, rv), []relation.OrderSpec{byAll, byAll}, physical.AlgoMergeUnion},
		{"diffT always hash-partitions", algebra.NewTDiff(lv, rv), []relation.OrderSpec{byAll, byAll}, physical.AlgoHashPart},
	}
	for _, c := range cases {
		if d := physical.Decide(c.plan, delivered(c.orders), physical.Shape{}); d.Algo != c.want {
			t.Errorf("%s: got %s, want %s", c.name, d.Algo, c.want)
		}
	}
}

// TestCoveringPrefix pins the prefix-covering predicate the decisions rest
// on, including the duplicate-key regression.
func TestCoveringPrefix(t *testing.T) {
	s := temporalSchema()
	vidx := physical.ValueIdx(s)
	if p, ok := physical.CoveringPrefix(byNameGrp, s, vidx); !ok || len(p) != 2 {
		t.Errorf("⟨Name,Grp⟩ must cover the value columns, got %v %v", p, ok)
	}
	if _, ok := physical.CoveringPrefix(byName, s, vidx); ok {
		t.Error("⟨Name⟩ must not cover {Name,Grp}")
	}
	dup := relation.OrderSpec{relation.Key("Name"), relation.Key("Name")}
	if _, ok := physical.CoveringPrefix(dup, s, vidx); ok {
		t.Error("sort_{Name,Name} must not cover {Name,Grp}")
	}
	if _, ok := physical.CoveringPrefix(nil, s, nil); ok {
		t.Error("empty attribute set has no covering prefix (no merge variant)")
	}
}

// TestAnnotateStaticPlan pins Annotate end to end on a plan whose base
// order makes every order-exploiting variant fire.
func TestAnnotateStaticPlan(t *testing.T) {
	l := leafWithOrder("L", byNameGrp)
	plan := algebra.NewSort(byName, algebra.NewCoal(algebra.NewTRdup(l)))
	dec, err := physical.Annotate(plan, physical.Shape{})
	if err != nil {
		t.Fatal(err)
	}
	sum := physical.Summarize(dec)
	if sum != (physical.Summary{SortsElided: 1, MergeOps: 2}) {
		t.Fatalf("expected 1 elided sort and 2 merge groups, got %+v", sum)
	}
	if d := dec[plan]; d.Algo != physical.AlgoSortElided {
		t.Fatalf("top sort: got %s", d.Algo)
	}
}

// TestDecideShapes pins how the engine's width and budget move a decision
// off the order-exploiting variants it cannot run: the two-sided merges
// materialize a side, so a pool or a budget partitions it instead; a
// contiguous rdup streams except under plain width, where the driver's
// range exchange runs its hashing body; the grouping family keeps cutting
// contiguous groups on every shape, streaming ahead of the driver except
// under plain width; and an elided sort stays elided everywhere.
func TestDecideShapes(t *testing.T) {
	seq, par := physical.Shape{}, physical.Shape{Parallel: true}
	mem, parMem := physical.Shape{Budgeted: true}, physical.Shape{Parallel: true, Budgeted: true}
	lv, rv := leafWithOrder("L", nil), leafWithOrder("R", nil)
	eq := expr.Compare(expr.Eq, expr.Column("1.Name"), expr.Column("2.Name"))
	type want struct {
		algo                               physical.Algo
		merge, contiguous, exchange, spill bool
	}
	cases := []struct {
		name   string
		plan   algebra.Node
		orders []relation.OrderSpec
		shapes map[physical.Shape]want
	}{
		{"join on aligned keys", algebra.NewTJoin(eq, lv, rv), []relation.OrderSpec{byName, byName}, map[physical.Shape]want{
			seq:    {algo: physical.AlgoMergeJoin, merge: true},
			par:    {algo: physical.AlgoHashJoin, exchange: true},
			mem:    {algo: physical.AlgoHashJoin, spill: true},
			parMem: {algo: physical.AlgoHashJoin, exchange: true, spill: true},
		}},
		{"diff aligned", algebra.NewDiff(lv, rv), []relation.OrderSpec{byAll, byAll}, map[physical.Shape]want{
			seq: {algo: physical.AlgoMergeDiff, merge: true},
			par: {algo: physical.AlgoHashDiff, exchange: true},
			mem: {algo: physical.AlgoHashDiff, spill: true},
		}},
		{"rdup total order", algebra.NewRdup(lv), []relation.OrderSpec{byAll}, map[physical.Shape]want{
			seq:    {algo: physical.AlgoMergeDedup, merge: true, contiguous: true},
			par:    {algo: physical.AlgoHashDedup, contiguous: true, exchange: true},
			mem:    {algo: physical.AlgoMergeDedup, merge: true, contiguous: true},
			parMem: {algo: physical.AlgoMergeDedup, merge: true, contiguous: true},
		}},
		{"rdup unordered", algebra.NewRdup(lv), []relation.OrderSpec{nil}, map[physical.Shape]want{
			seq: {algo: physical.AlgoHashDedup},
			par: {algo: physical.AlgoHashDedup, exchange: true},
			mem: {algo: physical.AlgoHashDedup, spill: true},
		}},
		{"coalT contiguous", algebra.NewCoal(lv), []relation.OrderSpec{byNameGrp}, map[physical.Shape]want{
			seq:    {algo: physical.AlgoMergeGroup, merge: true, contiguous: true},
			par:    {algo: physical.AlgoMergeGroup, merge: true, contiguous: true, exchange: true},
			mem:    {algo: physical.AlgoMergeGroup, merge: true, contiguous: true},
			parMem: {algo: physical.AlgoMergeGroup, merge: true, contiguous: true},
		}},
		{"aggregate without GROUP BY", algebra.NewAggregate(nil, []expr.Aggregate{{Func: expr.CountAll, As: "c"}}, lv), []relation.OrderSpec{nil}, map[physical.Shape]want{
			par:    {algo: physical.AlgoHashGroup, contiguous: true},
			parMem: {algo: physical.AlgoHashGroup, contiguous: true},
		}},
		{"sort elided", algebra.NewSort(byName, lv), []relation.OrderSpec{byNameGrp}, map[physical.Shape]want{
			parMem: {algo: physical.AlgoSortElided},
		}},
		{"sort performed", algebra.NewSort(byName, lv), []relation.OrderSpec{nil}, map[physical.Shape]want{
			seq:    {algo: physical.AlgoSort},
			parMem: {algo: physical.AlgoSort, exchange: true, spill: true},
		}},
	}
	for _, c := range cases {
		for sh, w := range c.shapes {
			d := physical.Decide(c.plan, delivered(c.orders), sh)
			got := want{d.Algo, d.Merge, d.Contiguous, d.Exchange, d.Spills}
			if got != w {
				t.Errorf("%s at %+v: got %+v, want %+v", c.name, sh, got, w)
			}
		}
	}
}

// TestDecideTemporalPairs pins what \ᵀ and ∪ᵀ read of their left input's
// state: a snapshot-distinct left makes \ᵀ subtract the right's union — on
// every shape, with the flags hash-part has, so it prices alike — while a
// left that is only coalesced keeps the sweep (coalescing merges adjacent
// periods only, so value-equivalent periods may still overlap), ∪ᵀ never
// subtracts, and a left order covering the value columns makes either pair
// contiguous.
func TestDecideTemporalPairs(t *testing.T) {
	lv, rv := leafWithOrder("L", nil), leafWithOrder("R", nil)
	diff, union := algebra.NewTDiff(lv, rv), algebra.NewTUnion(lv, rv)
	type want struct {
		algo       physical.Algo
		contiguous bool
	}
	cases := []struct {
		name string
		plan algebra.Node
		left props.State
		want want
	}{
		{"diffT over a coalesced left", diff, props.State{Coalesced: true}, want{physical.AlgoHashPart, false}},
		{"diffT over a snapshot-distinct left", diff, props.State{SnapshotDistinct: true}, want{physical.AlgoMinusUnion, false}},
		{"diffT over a sorted snapshot-distinct left", diff, props.State{SnapshotDistinct: true, Coalesced: true, Order: byNameGrp}, want{physical.AlgoMinusUnion, true}},
		{"diffT over a left sorted on a value prefix", diff, props.State{Order: byName}, want{physical.AlgoHashPart, false}},
		{"diffT over a left sorted on every column", diff, props.State{Order: byAll}, want{physical.AlgoHashPart, true}},
		{"unionT over a snapshot-distinct left", union, props.State{SnapshotDistinct: true}, want{physical.AlgoHashPart, false}},
		{"unionT over a sorted left", union, props.State{Order: byNameGrp}, want{physical.AlgoHashPart, true}},
	}
	for _, c := range cases {
		for _, sh := range []physical.Shape{{}, {Parallel: true}, {Budgeted: true}, {Parallel: true, Budgeted: true}} {
			d := physical.Decide(c.plan, []props.State{c.left, {}}, sh)
			if got := (want{d.Algo, d.Contiguous}); got != c.want {
				t.Errorf("%s at %+v: got %+v, want %+v", c.name, sh, got, c.want)
			}
			if d.Merge || d.SortElided || d.Exchange != sh.Parallel || d.Spills != sh.Budgeted {
				t.Errorf("%s at %+v: flags %+v, want hash-part's", c.name, sh, d.Variant)
			}
		}
	}
}

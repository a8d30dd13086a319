package exec_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/expr"
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// fragChain is one random fragment: its σ/π/sort body and group tail, each
// built over a given input, so the same chain runs as a fragment and as the
// oracle's plans.
type fragChain struct {
	// body builds the σ/π/sort prefix over leaf; a projection also passes
	// the column named carry through, when one is named.
	body func(leaf algebra.Node, carry string) algebra.Node
	tail func(in, leaf algebra.Node) algebra.Node // nil for an ungrouped chain
	keys relation.OrderSpec                       // the sort's keys, nil if none
}

// plan is the chain as the fragment RunFragment receives, over leaf.
func (c fragChain) plan(leaf algebra.Node) algebra.Node {
	n := c.body(leaf, "")
	if c.tail != nil {
		n = c.tail(n, leaf)
	}
	return n
}

// randomFragChain draws select / project / sort (/ coalᵀ | rdupᵀ | 𝒢) over
// the datagen temporal schema, and wraps half the coalᵀ and rdupᵀ tails in
// a \ᵀ whose right argument is an unsorted filter of a second leaf over the
// same relation — a two-leaf grouped region. Grouped tails sort on their
// grouping columns first, as the push-down contract requires.
func randomFragChain(rng *rand.Rand) fragChain {
	var c fragChain
	var mk []func(n algebra.Node, carry string) algebra.Node
	add := func(f func(n algebra.Node, carry string) algebra.Node) { mk = append(mk, f) }
	tail := rng.Intn(4) // 0: none, 1: coalT, 2: rdupT, 3: aggr
	if rng.Intn(3) > 0 {
		preds := []expr.Pred{
			expr.Compare(expr.Lt, expr.Column("Grp"), expr.Literal(value.Int(int64(5+rng.Intn(20))))),
			expr.Compare(expr.Ge, expr.Column("Name"), expr.Literal(value.String_("v1"))),
			expr.Compare(expr.Lt, expr.Column(schema.T1), expr.Literal(value.Time(period.Chronon(100+rng.Intn(200))))),
		}
		p := preds[rng.Intn(len(preds))]
		add(func(n algebra.Node, _ string) algebra.Node { return algebra.NewSelect(p, n) })
	}
	if rng.Intn(2) == 0 {
		names := []string{"Grp", "Name", schema.T1, schema.T2}
		if tail == 0 && rng.Intn(2) == 0 {
			names = names[:2]
		}
		items := make([]algebra.ProjItem, len(names))
		for i, name := range names {
			items[i] = algebra.ColItem(name)
		}
		add(func(n algebra.Node, carry string) algebra.Node {
			if carry == "" {
				return algebra.NewProject(items, n)
			}
			return algebra.NewProject(append(items[:len(items):len(items)], algebra.ColItem(carry)), n)
		})
	}
	switch {
	case tail == 3:
		c.keys = relation.OrderSpec{relation.Key("Name")}
	case tail > 0:
		c.keys = relation.OrderSpec{relation.Key("Name"), relation.Key("Grp")}
	case rng.Intn(3) > 0:
		c.keys = []relation.OrderSpec{
			{relation.Key("Name")},
			{relation.KeyDesc("Grp"), relation.Key("Name")},
		}[rng.Intn(2)]
	}
	if c.keys != nil {
		keys := c.keys
		add(func(n algebra.Node, _ string) algebra.Node { return algebra.NewSort(keys, n) })
	}
	c.body = func(n algebra.Node, carry string) algebra.Node {
		for _, f := range mk {
			n = f(n, carry)
		}
		return n
	}
	switch tail {
	case 1:
		c.tail = func(n, _ algebra.Node) algebra.Node { return algebra.NewCoal(n) }
	case 2:
		c.tail = func(n, _ algebra.Node) algebra.Node { return algebra.NewTRdup(n) }
	case 3:
		aggs := []expr.Aggregate{{Func: expr.CountAll, As: "C"}, {Func: expr.Max, Arg: "Grp", As: "M"}}
		c.tail = func(n, _ algebra.Node) algebra.Node { return algebra.NewAggregate([]string{"Name"}, aggs, n) }
	}
	if (tail == 1 || tail == 2) && rng.Intn(2) == 0 {
		group, cut := c.tail, int64(5+rng.Intn(20))
		c.tail = func(n, leaf algebra.Node) algebra.Node {
			sch, err := n.Schema()
			if err != nil {
				panic(err)
			}
			right := algebra.NewProjectCols(algebra.NewSelect(expr.Compare(expr.Lt, expr.Column("Grp"), expr.Literal(value.Int(cut))), leaf), sch.Names()...)
			return algebra.NewTDiff(group(n, leaf), right)
		}
	}
	return c
}

// TestRunFragmentMatchesEngine pins the shard side of distributed execution
// to the reference evaluator, per slice and end to end. Per slice: the result
// and the returned sequence keys are what the reference computes when the
// keys ride through the chain as one more column — σ drops a key with its
// row, a stable sort carries it — and a grouped tail returns nil keys and the
// reference's groups. End to end: the slices' outputs, merged with the
// coordinator's kernel for the fragment kind, equal the reference's result on
// the unsharded relation at 1, 2 and 4 slices. Slices are cut by a hash of
// Name, so sequence keys are non-identity and every group is slice-local.
func TestRunFragmentMatchesEngine(t *testing.T) {
	diffs := 0 // two-leaf \ᵀ fragments with a non-empty result
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := sizedTemporal(200+rng.Intn(400), 500+seed)
		sch := base.Schema()
		chain := randomFragChain(rng)
		frag := chain.plan(algebra.NewRel("R", sch, algebra.BaseInfo{}))
		what := fmt.Sprintf("seed %d (%s)", seed, algebra.Canonical(frag))

		want, err := eval.New(eval.MapSource{"R": base}).Eval(frag)
		if err != nil {
			t.Fatalf("%s: reference: %v", what, err)
		}

		for _, n := range []int{1, 2, 4} {
			tagged := make([]exec.TaggedRows, n)
			var outSch *schema.Schema
			for i := 0; i < n; i++ {
				var rows []relation.Tuple
				var pos []int
				for k, tu := range base.Tuples() {
					h := fnv.New32a()
					h.Write([]byte(tu[0].AsString()))
					if int(h.Sum32())%n == i {
						rows, pos = append(rows, tu), append(pos, k)
					}
				}
				got, seqs, err := exec.RunFragment(frag, eval.MapSource{"R": relation.FromTuplesTrusted(sch, rows)}, map[string][]int{"R": pos})
				if err != nil {
					t.Fatalf("%s slice %d/%d: %v", what, i, n, err)
				}
				outSch = got.Schema()

				if chain.tail != nil {
					if seqs != nil {
						t.Fatalf("%s slice %d/%d: grouped fragment returned sequence keys", what, i, n)
					}
					plain := chain.plan(algebra.NewRel("S", sch, algebra.BaseInfo{}))
					ref, err := eval.New(eval.MapSource{"S": relation.FromTuplesTrusted(sch, rows)}).Eval(plain)
					if err != nil {
						t.Fatal(err)
					}
					if !got.EqualAsList(ref) || !got.Order().Equal(ref.Order()) {
						t.Fatalf("%s slice %d/%d: grouped fragment differs from the reference", what, i, n)
					}
					b := got.Columns()
					tagged[i] = exec.TaggedRows{Batch: b}
					continue
				}
				// The per-slice oracle: the reference over the slice with the
				// keys appended as a column.
				keyedSch := schema.MustNew(append(sch.Attributes(), schema.Attr("Key", value.KindInt))...)
				keyed := make([]relation.Tuple, len(rows))
				for k, tu := range rows {
					keyed[k] = append(append(relation.Tuple(nil), tu...), value.Int(int64(pos[k])))
				}
				ref, err := eval.New(eval.MapSource{"S": relation.FromTuplesTrusted(keyedSch, keyed)}).
					Eval(chain.body(algebra.NewRel("S", keyedSch, algebra.BaseInfo{}), "Key"))
				if err != nil {
					t.Fatal(err)
				}
				if got.Len() != ref.Len() || len(seqs) != ref.Len() {
					t.Fatalf("%s slice %d/%d: %d rows and %d keys, reference %d", what, i, n, got.Len(), len(seqs), ref.Len())
				}
				w := got.Schema().Len()
				for k, tu := range ref.Tuples() {
					if !got.At(k).Equal(tu[:w]) || int64(seqs[k]) != tu[w].AsInt() {
						t.Fatalf("%s slice %d/%d row %d: got %v key %d, reference %v", what, i, n, k, got.At(k), seqs[k], tu)
					}
				}
				if !got.Order().Equal(ref.Order()) {
					t.Fatalf("%s slice %d/%d: order %s, reference %s", what, i, n, got.Order(), ref.Order())
				}
				b := got.Columns()
				tagged[i] = exec.TaggedRows{Batch: b, Seqs: seqs}
			}
			merged := relation.FromColumnar(outSch, exec.MergeParts(outSch, chain.keys, chain.tail != nil, tagged))
			if !merged.EqualAsList(want) {
				t.Fatalf("%s: %d slices merge to %d rows, the reference on the unsharded relation has %d", what, n, merged.Len(), want.Len())
			}
		}
		if frag.Op() == algebra.OpTDiff && want.Len() > 0 {
			diffs++
		}
	}
	if diffs < 5 {
		t.Fatalf("vacuous: %d non-empty two-leaf \\ᵀ fragments", diffs)
	}
}

// TestRunFragmentRejects pins RunFragment's typed refusals: a fragment that
// is not a unary chain over one relation, a relation the shard does not
// hold, and sequence keys that do not match the slice.
func TestRunFragmentRejects(t *testing.T) {
	base := sizedTemporal(10, 1)
	r := algebra.NewRel("R", base.Schema(), algebra.BaseInfo{})
	src := eval.MapSource{"R": base}
	for name, tc := range map[string]struct {
		plan algebra.Node
		pos  map[string][]int
	}{
		"two relations":    {algebra.NewUnionAll(r, r), nil},
		"unknown relation": {algebra.NewCoal(algebra.NewRel("S", base.Schema(), algebra.BaseInfo{})), nil},
		"short keys":       {algebra.NewSort(relation.OrderSpec{relation.Key("Name")}, r), map[string][]int{"R": {0}}},
	} {
		if _, _, err := exec.RunFragment(tc.plan, src, tc.pos); err == nil {
			t.Errorf("%s: ran without error", name)
		}
	}
}

// TestRunFragmentOverTravelScan runs σ/π/sort fragments over FOR PERIOD and
// AS OF leaves of a reopened disk catalog, whose travel scans are selection
// views of the loaded batch. The result equals the engine's and the
// reference's, and every returned sequence key names the leaf row its output
// row came from.
func TestRunFragmentOverTravelScan(t *testing.T) {
	dir := t.TempDir()
	disk, err := catalog.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	era := func(e int) [][]any {
		var rows [][]any
		for i := 0; i < 200; i++ {
			rows = append(rows, []any{fmt.Sprintf("e%03d", (i*7)%50), fmt.Sprintf("d%d", i%3), 100*e + i%90, 100*e + i%90 + 5})
		}
		return rows
	}
	if err := disk.AddDisk("EMPLOYEE", relation.MustFromRows(catalog.EmployeeSchema(), era(0)), algebra.BaseInfo{}); err != nil {
		t.Fatal(err)
	}
	if err := disk.AppendRows("EMPLOYEE", era(1)); err != nil {
		t.Fatal(err)
	}
	cold, err := catalog.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	dept := expr.Compare(expr.Eq, expr.Column("Dept"), expr.Literal(value.String_("d1")))
	for _, tr := range []catalog.Travel{
		{Kind: catalog.TravelPeriod, Start: 120, End: 150},
		{Kind: catalog.TravelAsOf, T: 130},
	} {
		leaf, err := cold.TravelNode("EMPLOYEE", &tr)
		if err != nil {
			t.Fatal(err)
		}
		in, err := cold.Resolve(leaf.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, plan := range []algebra.Node{
			algebra.NewSelect(dept, leaf),
			algebra.NewProjectCols(algebra.NewSelect(dept, leaf), "EmpName", "Dept"),
			algebra.NewSort(relation.OrderSpec{relation.Key("EmpName")}, algebra.NewSelect(dept, leaf)),
		} {
			what := algebra.Canonical(plan)
			got, seqs, err := exec.RunFragment(plan, cold, nil)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			want, err := eval.Reference().Instantiate(cold).Eval(plan)
			if err != nil {
				t.Fatal(err)
			}
			engine, err := exec.New(cold).Eval(plan)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() == 0 || !got.EqualAsList(want) || !got.EqualAsList(engine) {
				t.Fatalf("%s: %d rows differ from the reference's %d and the engine's %d", what, got.Len(), want.Len(), engine.Len())
			}
			if len(seqs) != got.Len() {
				t.Fatalf("%s: %d sequence keys for %d rows", what, len(seqs), got.Len())
			}
			for k, s := range seqs {
				src := in.At(s)
				if src[1].AsString() != "d1" || src[0].AsString() != got.At(k)[0].AsString() {
					t.Fatalf("%s row %d: key %d names leaf row %v, output %v", what, k, s, src, got.At(k))
				}
			}
		}
	}
}

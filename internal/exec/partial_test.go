package exec_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/expr"
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// fragChain is one random fragment: the steps RunFragment receives and the
// same chain as a plan over a given leaf, up to (not including) a group tail.
type fragChain struct {
	steps []exec.FragmentStep
	// body builds the σ/π/sort prefix over leaf; a projection also passes
	// the column named carry through, when one is named.
	body func(leaf algebra.Node, carry string) algebra.Node
	tail func(in algebra.Node) algebra.Node // nil for an ungrouped chain
	keys relation.OrderSpec                 // the sort step's keys, nil if none
}

// randomFragChain draws select / project / sort (/ coalᵀ | rdupᵀ | 𝒢) over
// the datagen temporal schema. Grouped tails sort on their grouping columns
// first, as the push-down contract requires.
func randomFragChain(rng *rand.Rand) fragChain {
	var c fragChain
	var mk []func(n algebra.Node, carry string) algebra.Node
	add := func(st exec.FragmentStep, f func(n algebra.Node, carry string) algebra.Node) {
		c.steps = append(c.steps, st)
		if f != nil {
			mk = append(mk, f)
		}
	}
	tail := rng.Intn(4) // 0: none, 1: coalT, 2: rdupT, 3: aggr
	if rng.Intn(3) > 0 {
		preds := []expr.Pred{
			expr.Compare(expr.Lt, expr.Column("Grp"), expr.Literal(value.Int(int64(5+rng.Intn(20))))),
			expr.Compare(expr.Ge, expr.Column("Name"), expr.Literal(value.String_("v1"))),
			expr.Compare(expr.Lt, expr.Column(schema.T1), expr.Literal(value.Time(period.Chronon(100+rng.Intn(200))))),
		}
		p := preds[rng.Intn(len(preds))]
		add(exec.FragmentStep{Op: exec.FragSelect, Pred: p}, func(n algebra.Node, _ string) algebra.Node { return algebra.NewSelect(p, n) })
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
		add(exec.FragmentStep{Op: exec.FragProject, Items: items}, func(n algebra.Node, carry string) algebra.Node {
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
		add(exec.FragmentStep{Op: exec.FragSort, Keys: keys}, func(n algebra.Node, _ string) algebra.Node { return algebra.NewSort(keys, n) })
	}
	c.body = func(n algebra.Node, carry string) algebra.Node {
		for _, f := range mk {
			n = f(n, carry)
		}
		return n
	}
	switch tail {
	case 1:
		add(exec.FragmentStep{Op: exec.FragCoalT}, nil)
		c.tail = algebra.NewCoal
	case 2:
		add(exec.FragmentStep{Op: exec.FragRdupT}, nil)
		c.tail = algebra.NewTRdup
	case 3:
		aggs := []expr.Aggregate{{Func: expr.CountAll, As: "C"}, {Func: expr.Max, Arg: "Grp", As: "M"}}
		add(exec.FragmentStep{Op: exec.FragAggr, GroupBy: []string{"Name"}, Aggs: aggs}, nil)
		c.tail = func(n algebra.Node) algebra.Node { return algebra.NewAggregate([]string{"Name"}, aggs, n) }
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
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := sizedTemporal(200+rng.Intn(400), 500+seed)
		sch := base.Schema()
		chain := randomFragChain(rng)
		what := fmt.Sprintf("seed %d (%d steps)", seed, len(chain.steps))

		full := chain.body(algebra.NewRel("R", sch, algebra.BaseInfo{}), "")
		if chain.tail != nil {
			full = chain.tail(full)
		}
		want, err := eval.New(eval.MapSource{"R": base}).Eval(full)
		if err != nil {
			t.Fatalf("%s: reference: %v", what, err)
		}

		for _, n := range []int{1, 2, 4} {
			tagged := make([]exec.TaggedRows, n)
			groups := make([][]relation.Tuple, n)
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
				got, seqs, err := exec.RunFragment(relation.FromTuplesTrusted(sch, rows), pos, chain.steps)
				if err != nil {
					t.Fatalf("%s slice %d/%d: %v", what, i, n, err)
				}
				outSch = got.Schema()

				if chain.tail != nil {
					if seqs != nil {
						t.Fatalf("%s slice %d/%d: grouped fragment returned sequence keys", what, i, n)
					}
					plain := chain.tail(chain.body(algebra.NewRel("S", sch, algebra.BaseInfo{}), ""))
					ref, err := eval.New(eval.MapSource{"S": relation.FromTuplesTrusted(sch, rows)}).Eval(plain)
					if err != nil {
						t.Fatal(err)
					}
					if !got.EqualAsList(ref) || !got.Order().Equal(ref.Order()) {
						t.Fatalf("%s slice %d/%d: grouped fragment differs from the reference", what, i, n)
					}
					groups[i] = got.Tuples()
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
				tagged[i] = exec.TaggedRows{Rows: got.Tuples(), Seqs: seqs}
			}
			var merged []relation.Tuple
			switch {
			case chain.tail != nil:
				merged = exec.MergeGroups(outSch, chain.keys, groups)
			case chain.keys != nil:
				merged = exec.MergeSorted(outSch, chain.keys, tagged)
			default:
				merged = exec.MergeBySeq(tagged)
			}
			if !relation.FromTuplesTrusted(outSch, merged).EqualAsList(want) {
				t.Fatalf("%s: %d slices merge to %d rows, the reference on the unsharded relation has %d", what, n, len(merged), want.Len())
			}
		}
	}
}

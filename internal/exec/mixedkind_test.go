package exec_test

import (
	"math"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// mixedKindSource builds a relation whose declared-int "Grp" column holds a
// mix of Int and Float values — including cross-kind equal pairs like
// Int(3) / Float(3.0) — through the trusted constructor, which performs no
// kind coercion. The columnar scan must demote such a column to boxed
// storage, and every downstream compare/hash/equality must fall back to
// the canonical generic semantics. Nothing in the algebra produces such a
// column today, but the storage layer admits it, so the engines must agree
// on it.
func mixedKindSource() (eval.MapSource, algebra.Node) {
	s := schema.MustNew(
		schema.Attr("Name", value.KindString),
		schema.Attr("Grp", value.KindInt),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime))
	mk := func(n string, g value.Value, t1, t2 int64) relation.Tuple {
		return relation.Tuple{value.String_(n), g, value.Time(period.Chronon(t1)), value.Time(period.Chronon(t2))}
	}
	ts := []relation.Tuple{
		mk("a", value.Int(3), 0, 10),
		mk("a", value.Float(3), 0, 10), // cross-kind duplicate of the row above
		mk("a", value.Float(2.5), 2, 8),
		mk("b", value.Int(-1), 5, 15),
		mk("b", value.Float(math.NaN()), 5, 15),
		mk("b", value.Float(math.NaN()), 5, 15), // NaN duplicates must dedup together
		mk("c", value.Float(math.Inf(1)), 1, 4),
		mk("c", value.Float(math.Copysign(0, -1)), 1, 4),
		mk("c", value.Int(0), 1, 4), // -0.0 vs 0: canonically equal numerics
	}
	r := relation.FromTuplesTrusted(s, ts)
	return eval.MapSource{"M": r}, algebra.NewRel("M", s, algebra.BaseInfo{})
}

// TestDifferentialMixedKindColumn pins the demotion boundary: plans over a
// kind-mixed column run identically on the reference evaluator, the
// columnar engine and the columnar-off engine, across the operators with
// typed columnar fast paths (sort, sorted dedup, merge diff/union, hash
// rdup, grouping).
func TestDifferentialMixedKindColumn(t *testing.T) {
	src, base := mixedKindSource()
	byAll := relation.OrderSpec{
		relation.Key("Name"), relation.Key("Grp"), relation.Key(schema.T1), relation.Key(schema.T2),
	}
	plans := []algebra.Node{
		algebra.NewSort(byAll, base),
		algebra.NewRdup(base),
		algebra.NewRdup(algebra.NewSort(byAll, base)),
		algebra.NewDiff(algebra.NewSort(byAll, base), algebra.NewSort(byAll, base)),
		algebra.NewUnion(algebra.NewSort(byAll, base), algebra.NewSort(byAll, base)),
		algebra.NewTRdup(base),
		algebra.NewCoal(algebra.NewSort(relation.OrderSpec{relation.Key("Name"), relation.Key("Grp")}, base)),
	}
	engines := []struct {
		name string
		opts exec.Config
	}{
		{"exec", exec.Config{}},
		{"exec-par3", exec.Config{Parallelism: 3}},
		{"exec-mem", exec.Config{MemoryBudget: 1 << 10}},
	}
	for _, plan := range plans {
		want, err := eval.New(src).Eval(plan)
		if err != nil {
			t.Fatalf("%s: reference: %v", algebra.Canonical(plan), err)
		}
		for _, eng := range engines {
			e := exec.NewWith(src, eng.opts)
			got, err := e.Eval(plan)
			if cerr := e.Close(); cerr != nil {
				t.Fatalf("%s: %s: close: %v", algebra.Canonical(plan), eng.name, cerr)
			}
			if err != nil {
				t.Fatalf("%s: %s: %v", algebra.Canonical(plan), eng.name, err)
			}
			if !got.EqualAsList(want) {
				t.Fatalf("%s: %s differs on the kind-mixed column\n%s:\n%s\nreference:\n%s",
					algebra.Canonical(plan), eng.name, eng.name, got, want)
			}
		}
	}
}

// TestDifferentialFloatBoundaries pins the float column boundaries on a
// well-kinded schema: NaN (canonical order, not IEEE), signed zero,
// infinities, and integral floats that equal int literals under the
// cross-kind comparison — through sorts, dedups and set operations on
// every engine.
func TestDifferentialFloatBoundaries(t *testing.T) {
	s := schema.MustNew(
		schema.Attr("Name", value.KindString),
		schema.Attr("X", value.KindFloat),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime))
	r := relation.MustFromRows(s, [][]any{
		{"a", math.NaN(), 0, 10},
		{"a", math.NaN(), 0, 10},
		{"a", 3.0, 0, 10},
		{"b", math.Inf(1), 2, 6},
		{"b", math.Inf(-1), 2, 6},
		{"b", math.Copysign(0, -1), 2, 6},
		{"c", 0.0, 1, 4},
		{"c", 2.5, 1, 4},
		{"c", float64(1 << 53), 1, 4},
	})
	src := eval.MapSource{"F": r}
	base := algebra.NewRel("F", s, algebra.BaseInfo{})
	byAll := relation.OrderSpec{
		relation.Key("Name"), relation.Key("X"), relation.Key(schema.T1), relation.Key(schema.T2),
	}
	byX := relation.OrderSpec{relation.KeyDesc("X")}
	plans := []algebra.Node{
		algebra.NewSort(byX, base),
		algebra.NewRdup(algebra.NewSort(byAll, base)),
		algebra.NewDiff(algebra.NewSort(byAll, base), algebra.NewSort(byAll, base)),
		algebra.NewUnion(algebra.NewSort(byAll, base), algebra.NewSort(byAll, base)),
		algebra.NewRdup(base),
		algebra.NewTRdup(base),
	}
	engines := []struct {
		name string
		opts exec.Config
	}{
		{"exec", exec.Config{}},
		{"exec-par3", exec.Config{Parallelism: 3}},
		{"exec-mem", exec.Config{MemoryBudget: 1 << 10}},
	}
	for _, plan := range plans {
		want, err := eval.New(src).Eval(plan)
		if err != nil {
			t.Fatalf("%s: reference: %v", algebra.Canonical(plan), err)
		}
		for _, eng := range engines {
			e := exec.NewWith(src, eng.opts)
			got, err := e.Eval(plan)
			if cerr := e.Close(); cerr != nil {
				t.Fatalf("%s: %s: close: %v", algebra.Canonical(plan), eng.name, cerr)
			}
			if err != nil {
				t.Fatalf("%s: %s: %v", algebra.Canonical(plan), eng.name, err)
			}
			if !got.EqualAsList(want) {
				t.Fatalf("%s: %s differs on float boundaries\n%s:\n%s\nreference:\n%s",
					algebra.Canonical(plan), eng.name, eng.name, got, want)
			}
		}
	}
}

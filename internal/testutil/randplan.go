// Package testutil provides shared test fixtures, centrally the random plan
// generator used by the evaluator's invariant tests and by the differential
// tests that pin the exec engine against the reference evaluator. The
// generator covers the conventional and the temporal operators: a
// schema-preserving "temporal core" (selection, projection, sorting, rdupᵀ,
// coalᵀ, ⊔, ∪ᵀ, \ᵀ) optionally capped by a schema-changing operation
// (aggregation, rdup, ∪, \, ×, the join idioms) and a conventional tail of
// selections, sorts, projections and duplicate eliminations over whatever
// schema the cap produced.
package testutil

import (
	"fmt"
	"math"
	"math/rand"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/datagen"
	"tqp/internal/expr"
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// TemporalCatalog builds a two-relation catalog (A, B over the
// datagen.Temporal schema) with truthful base info, plus leaf nodes for
// plan generation.
func TemporalCatalog(seed int64) (*catalog.Catalog, []algebra.Node) {
	return TemporalCatalogSized(seed, 8, 6)
}

// TemporalCatalogSized is TemporalCatalog with explicit base cardinalities.
// The default differential suites run tiny relations for plan coverage; the
// memory-bounded suites size them up so operators genuinely exceed small
// budgets and the spill paths fire non-vacuously.
func TemporalCatalogSized(seed int64, rowsA, rowsB int) (*catalog.Catalog, []algebra.Node) {
	values := func(rows int) int {
		if v := rows / 3; v > 3 {
			return v
		}
		return 3
	}
	c := catalog.New()
	for i, spec := range []datagen.TemporalSpec{
		{Rows: rowsA, Values: values(rowsA), DupFrac: 0.25, AdjFrac: 0.25, Seed: seed},
		{Rows: rowsB, Values: values(rowsB), DupFrac: 0.1, AdjFrac: 0.4, Seed: seed + 100},
	} {
		r := datagen.Temporal(spec)
		info := algebra.BaseInfo{
			Distinct:         !r.HasDuplicates(),
			SnapshotDistinct: !r.HasSnapshotDuplicates(),
			Coalesced:        r.IsCoalesced(),
		}
		name := []string{"A", "B"}[i]
		if err := c.Add(name, r, info); err != nil {
			panic(fmt.Sprintf("testutil: %v", err))
		}
	}
	return c, []algebra.Node{c.MustNode("A"), c.MustNode("B")}
}

// SortedCatalog builds a catalog of two datagen.Temporal relations, L (rows
// wide) and R (256 rows), physically sorted on ⟨Name, Grp⟩ with that order
// declared in BaseInfo (Add verifies the declaration against the data): the
// precondition for every order-exploiting physical variant and for the
// order-aware cost model to price one.
func SortedCatalog(rows int) *catalog.Catalog {
	byNameGrp := relation.OrderSpec{relation.Key("Name"), relation.Key("Grp")}
	c := catalog.New()
	for i, spec := range []datagen.TemporalSpec{
		{Rows: rows, Values: rows / 4, DupFrac: 0.2, AdjFrac: 0.3, TimeRange: 300, MaxPeriod: 15, Seed: 21},
		{Rows: 256, Values: rows / 4, DupFrac: 0.1, AdjFrac: 0.3, TimeRange: 300, MaxPeriod: 15, Seed: 22},
	} {
		r := datagen.Temporal(spec)
		if err := r.SortStable(byNameGrp); err != nil {
			panic(fmt.Sprintf("testutil: %v", err))
		}
		if err := c.Add([]string{"L", "R"}[i], r, algebra.BaseInfo{Order: byNameGrp}); err != nil {
			panic(fmt.Sprintf("testutil: %v", err))
		}
	}
	return c
}

// TemporalCore builds a random type-correct, schema-preserving temporal plan
// of bounded depth over the given bases (which must share one temporal
// schema with attributes Name and Grp, like datagen.Temporal's). The shape
// distribution deliberately over-weights order-sensitive compositions —
// sorts feeding the grouping operators (the merge/streaming paths),
// sort-prefix chains (the elision path), and sorts under the set
// operations (merge diff) — so the differential suite exercises every
// physical variant of the exec engine, not just the hash defaults.
func TemporalCore(rng *rand.Rand, bases []algebra.Node, depth int) algebra.Node {
	if depth <= 0 {
		return bases[rng.Intn(len(bases))]
	}
	child := func() algebra.Node { return TemporalCore(rng, bases, depth-1) }
	pred := expr.Compare(expr.Lt, expr.Column("Grp"), expr.Literal(value.Int(int64(rng.Intn(4)))))
	byName := relation.OrderSpec{relation.Key("Name")}
	byNameGrp := relation.OrderSpec{relation.Key("Name"), relation.Key("Grp")}
	byGrpName := relation.OrderSpec{relation.KeyDesc("Grp"), relation.Key("Name")}
	switch rng.Intn(14) {
	case 0:
		return algebra.NewSelect(pred, child())
	case 1:
		return algebra.NewProjectCols(child(), "Name", "Grp", "T1", "T2")
	case 2:
		return algebra.NewSort(byName, child())
	case 3:
		return algebra.NewTRdup(child())
	case 4:
		return algebra.NewCoal(child())
	case 5:
		return algebra.NewUnionAll(child(), child())
	case 6:
		return algebra.NewTUnion(child(), child())
	case 7:
		return algebra.NewTDiff(child(), child())
	case 8:
		// Value groups contiguous under the sort: the streaming
		// group-at-a-time rdupᵀ path.
		return algebra.NewTRdup(algebra.NewSort(byNameGrp, child()))
	case 9:
		// Same for coalᵀ, with a direction mix.
		return algebra.NewCoal(algebra.NewSort(byGrpName, child()))
	case 10:
		// A sort-prefix chain: the outer sort elides against the inner.
		return algebra.NewSort(byName, algebra.NewSort(byNameGrp, child()))
	case 11:
		// Both difference inputs share a total order on the value columns
		// (time attributes still vary) — and with a sort over the whole
		// schema the merge-diff path fires downstream of rdup/diff caps.
		return algebra.NewTDiff(algebra.NewSort(byNameGrp, child()), algebra.NewSort(byNameGrp, child()))
	case 12:
		// Sorted-left temporal union: exercises one-sided order retention.
		return algebra.NewTUnion(algebra.NewSort(byName, child()), child())
	default:
		return algebra.NewSelect(pred, algebra.NewSort(byName, child()))
	}
}

// RandomPlan builds a random type-correct plan covering conventional and
// temporal operators: a temporal core, an optional schema-changing cap, and
// an optional conventional tail over the cap's schema. Order-sensitive caps
// are weighted in: aggregation over explicitly sorted inputs (the
// group-at-a-time paths), full-schema sorts under rdup/diff/union (the
// merge dedup/diff/union paths), and equijoins over key-sorted inputs (the
// merge join path).
func RandomPlan(rng *rand.Rand, bases []algebra.Node, depth int) algebra.Node {
	p := TemporalCore(rng, bases, depth)
	sibling := func() algebra.Node { return TemporalCore(rng, bases, maxInt(depth-1, 0)) }
	aggs := randomAggs(rng)
	byAll := relation.OrderSpec{
		relation.Key("Name"), relation.Key("Grp"), relation.Key("T1"), relation.Key("T2"),
	}
	switch rng.Intn(14) {
	case 0:
		p = algebra.NewTAggregate([]string{"Name"}, aggs, p)
	case 1:
		p = algebra.NewAggregate([]string{"Name", "Grp"}, aggs, p)
	case 2:
		p = algebra.NewRdup(p)
	case 3:
		p = algebra.NewDiff(p, sibling())
	case 4:
		p = algebra.NewUnion(p, sibling())
	case 10:
		// aggrᵀ over an input sorted on the grouping prefix: streaming
		// group-at-a-time aggregation.
		p = algebra.NewTAggregate([]string{"Name"}, aggs,
			algebra.NewSort(relation.OrderSpec{relation.Key("Name")}, p))
	case 11:
		// rdup over a total order: the adjacent-compare dedup path.
		p = algebra.NewRdup(algebra.NewSort(byAll, p))
	case 12:
		// Both difference inputs share one total order: the merge-diff path.
		p = algebra.NewDiff(algebra.NewSort(byAll, p), algebra.NewSort(byAll, sibling()))
	case 13:
		// Both union inputs share one total order: the merge-union path.
		p = algebra.NewUnion(algebra.NewSort(byAll, p), algebra.NewSort(byAll, sibling()))
	case 5:
		// Conventional equijoin over temporal arguments: the product
		// qualifies every clashing attribute, so the join predicate names
		// the "1."/"2." columns. The equality conjunct exercises the exec
		// engine's hash-join path — or the merge-join path when both inputs
		// are sorted on the key — and the inequality stays residual.
		pred := expr.Pred(expr.Compare(expr.Eq, expr.Column("1.Grp"), expr.Column("2.Grp")))
		if rng.Intn(2) == 0 {
			pred = expr.Conj(pred, expr.Compare(expr.Le, expr.Column("1.T1"), expr.Column("2.T2")))
		}
		sib := sibling()
		if rng.Intn(2) == 0 {
			byGrp := relation.OrderSpec{relation.Key("Grp")}
			p, sib = algebra.NewSort(byGrp, p), algebra.NewSort(byGrp, sib)
		}
		p = algebra.NewJoin(pred, p, sib)
	case 6:
		pred := expr.Pred(expr.Compare(expr.Eq, expr.Column("1.Name"), expr.Column("2.Name")))
		equi := true
		if rng.Intn(2) == 0 {
			pred = expr.Compare(expr.Lt, expr.Column("1.Grp"), expr.Column("2.Grp"))
			equi = false
		}
		sib := sibling()
		if equi && rng.Intn(2) == 0 {
			// Key-sorted temporal join inputs: the merge-join path with the
			// period intersection fused in.
			byName := relation.OrderSpec{relation.Key("Name")}
			p, sib = algebra.NewSort(byName, p), algebra.NewSort(byName, sib)
		}
		p = algebra.NewTJoin(pred, p, sib)
	case 7:
		p = algebra.NewProduct(p, sibling())
	default:
		// Leave the temporal core uncapped.
	}
	for rng.Intn(3) == 0 {
		p = conventionalTail(rng, p)
	}
	return p
}

// conventionalTail wraps p in one schema-agnostic conventional operation.
func conventionalTail(rng *rand.Rand, p algebra.Node) algebra.Node {
	s, err := p.Schema()
	if err != nil {
		panic(fmt.Sprintf("testutil: generated plan has no schema: %v", err))
	}
	switch rng.Intn(4) {
	case 0:
		a := s.At(rng.Intn(s.Len()))
		return algebra.NewSelect(randomCmp(rng, a), p)
	case 1:
		spec := relation.OrderSpec{randomKey(rng, s)}
		if rng.Intn(2) == 0 {
			k := randomKey(rng, s)
			if k.Attr != spec[0].Attr {
				spec = append(spec, k)
			}
		}
		return algebra.NewSort(spec, p)
	case 2:
		// rdup qualifies a temporal argument's T1/T2 as "1.T1"/"1.T2"; on a
		// schema that already carries those names (a product's output) the
		// rename would clash, so fall through to a projection instead.
		if !s.Temporal() || !s.Has("1."+schema.T1) {
			return algebra.NewRdup(p)
		}
		fallthrough
	default:
		return algebra.NewProjectCols(p, projectedNames(rng, s)...)
	}
}

// randomCmp compares an attribute against a random literal of its domain —
// deliberately crossing the numeric kinds: an int attribute compares
// against float literals (integral and fractional) and a float attribute
// against int and NaN literals about a third of the time, so the canonical
// cross-kind equality and the NaN comparison boundary run through every
// engine the differential suites pit against each other.
func randomCmp(rng *rand.Rand, a schema.Attribute) expr.Pred {
	ops := []expr.CmpOp{expr.Lt, expr.Le, expr.Gt, expr.Ge, expr.Ne}
	op := ops[rng.Intn(len(ops))]
	var lit value.Value
	switch a.Kind {
	case value.KindInt:
		switch rng.Intn(6) {
		case 0:
			// Integral float: equal to an int value under the canonical
			// numeric comparison (Int(3) == Float(3.0)).
			lit = value.Float(float64(rng.Intn(6)))
		case 1:
			// Fractional float: strictly between the int domain's values.
			lit = value.Float(float64(rng.Intn(6)) + 0.5)
		default:
			lit = value.Int(int64(rng.Intn(6)))
		}
	case value.KindFloat:
		switch rng.Intn(6) {
		case 0:
			lit = value.Int(int64(rng.Intn(6)))
		case 1:
			// NaN orders canonically (not IEEE): both engines must agree.
			lit = value.Float(math.NaN())
		case 2:
			lit = value.Float(float64(rng.Intn(6)) + 0.5)
		default:
			lit = value.Float(float64(rng.Intn(6)))
		}
	case value.KindString:
		lit = value.String_(fmt.Sprintf("v%d", rng.Intn(4)))
	case value.KindBool:
		lit = value.Bool(rng.Intn(2) == 0)
	default:
		lit = value.Time(period.Chronon(rng.Intn(40)))
	}
	return expr.Compare(op, expr.Column(a.Name), expr.Literal(lit))
}

func randomKey(rng *rand.Rand, s *schema.Schema) relation.OrderKey {
	a := s.At(rng.Intn(s.Len()))
	if rng.Intn(2) == 0 {
		return relation.KeyDesc(a.Name)
	}
	return relation.Key(a.Name)
}

// projectedNames picks a random non-empty subset of the schema's attributes
// in order, treating the reserved T1/T2 pair atomically (a schema with
// exactly one of them is invalid).
func projectedNames(rng *rand.Rand, s *schema.Schema) []string {
	t1, t2 := s.TimeIndices()
	var names []string
	keepTime := rng.Intn(2) == 0
	for i := 0; i < s.Len(); i++ {
		if i == t1 || i == t2 {
			if keepTime {
				names = append(names, s.At(i).Name)
			}
			continue
		}
		if rng.Intn(3) > 0 {
			names = append(names, s.At(i).Name)
		}
	}
	if len(names) == 0 {
		names = append(names, s.At(0).Name)
		if s.At(0).Name == schema.T1 {
			// The first attribute of a temporal schema could be T1; fall
			// back to the full attribute list rather than split the pair.
			names = s.Names()
		}
	}
	return names
}

func randomAggs(rng *rand.Rand) []expr.Aggregate {
	aggs := []expr.Aggregate{{Func: expr.CountAll, As: "cnt"}}
	switch rng.Intn(4) {
	case 0:
		aggs = append(aggs, expr.Aggregate{Func: expr.Sum, Arg: "Grp", As: "total"})
	case 1:
		aggs = append(aggs, expr.Aggregate{Func: expr.Max, Arg: "Grp", As: "top"})
	case 2:
		// AVG introduces a float column — usually holding integral floats —
		// into the cap's schema, so the conventional tail's sorts, dedups
		// and comparisons downstream run the float hash/compare boundary
		// (including the int/float cross-kind equality the canonical
		// semantics define) through every engine under test.
		aggs = append(aggs, expr.Aggregate{Func: expr.Avg, Arg: "Grp", As: "mean"})
	}
	return aggs
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ColdStatements returns n distinct statements of the statement benchmark's
// plan.cold shape over datagen.EmployeeDB: a coalesced temporal difference
// whose selections vary the overlap period and the project, ordered by
// EmpName. Each plans through the whole beam search.
func ColdStatements(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		a := rng.Intn(80)
		b := a + 5 + rng.Intn(25)
		sql := fmt.Sprintf("VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE "+
			"WHERE PERIOD(T1, T2) OVERLAPS PERIOD(%d, %d) "+
			"EXCEPT SELECT EmpName FROM PROJECT WHERE Prj = 'prj%03d' ORDER BY EmpName ASC",
			a, b, rng.Intn(16))
		if !seen[sql] {
			seen[sql] = true
			out = append(out, sql)
		}
	}
	return out
}

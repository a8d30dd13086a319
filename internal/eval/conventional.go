package eval

import (
	"tqp/internal/algebra"
	"tqp/internal/expr"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// evalUnionAll implements ⊔: concatenation of the argument lists. The
// result is unordered per Table 1 (we nevertheless produce the
// deterministic left-then-right list; "unordered" means no order guarantee
// is recorded for the optimizer).
func evalUnionAll(l, r *relation.Relation, outSchema *schema.Schema) *relation.Relation {
	out := relation.New(outSchema)
	for _, t := range l.Tuples() {
		out.Append(t)
	}
	for _, t := range r.Tuples() {
		out.Append(t)
	}
	return out
}

// evalUnion implements the multiset union ∪ of Albert [1]: a tuple occurs
// in the result as many times as it occurs in the argument with the most
// occurrences of it. The list form is all of r1 followed by the excess
// occurrences from r2 in their r2 order; the result is unordered.
func evalUnion(l, r *relation.Relation, outSchema *schema.Schema) *relation.Relation {
	counts := make(map[string]int, l.Len())
	for _, t := range l.Tuples() {
		counts[t.Key()]++
	}
	out := relation.New(outSchema)
	for _, t := range l.Tuples() {
		out.Append(t)
	}
	for _, t := range r.Tuples() {
		k := t.Key()
		if counts[k] > 0 {
			counts[k]--
			continue
		}
		out.Append(t)
	}
	return out
}

// evalProduct implements the conventional Cartesian product ×: a left-major
// pair loop, with an optional fused join predicate. Result order is
// Order(r1) (renamed under qualification).
func evalProduct(l, r *relation.Relation, outSchema *schema.Schema, p expr.Pred) (*relation.Relation, error) {
	out := relation.New(outSchema)
	lw := l.Schema().Len()
	for _, lt := range l.Tuples() {
		for _, rt := range r.Tuples() {
			nt := make(relation.Tuple, lw+r.Schema().Len())
			copy(nt, lt)
			copy(nt[lw:], rt)
			if p != nil {
				ok, err := p.Holds(outSchema, nt)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			out.Append(nt)
		}
	}
	return out, nil
}

// evalDiff implements the multiset difference \: each tuple occurs
// max(n1(t)−n2(t), 0) times. The earliest occurrences in r1 are the ones
// cancelled, so the result retains the order (and the late duplicates) of
// r1. On temporal arguments the result is a snapshot relation (time
// attributes qualified); the tuple values are unchanged.
func evalDiff(l, r *relation.Relation, outSchema *schema.Schema) *relation.Relation {
	budget := make(map[string]int, r.Len())
	for _, t := range r.Tuples() {
		budget[t.Key()]++
	}
	out := relation.New(outSchema)
	for _, t := range l.Tuples() {
		k := t.Key()
		if budget[k] > 0 {
			budget[k]--
			continue
		}
		out.Append(t)
	}
	return out
}

// evalRdup implements regular duplicate elimination rdup: the first
// occurrence of each tuple survives, so the order of the argument is
// retained. On temporal arguments the result is a snapshot relation with
// qualified time attributes (Figure 3, R2).
func evalRdup(in *relation.Relation, outSchema *schema.Schema) *relation.Relation {
	seen := make(map[string]bool, in.Len())
	out := relation.New(outSchema)
	for _, t := range in.Tuples() {
		k := t.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out.Append(t)
	}
	return out
}

// evalAggregate implements 𝒢: group by the G attributes, emit one tuple per
// group in order of first occurrence, so the result order is
// Prefix(Order(r), GroupPairs) per Table 1.
func evalAggregate(n *algebra.Aggregate, in *relation.Relation, outSchema *schema.Schema) (*relation.Relation, error) {
	gidx := make([]int, len(n.GroupBy))
	for i, g := range n.GroupBy {
		gidx[i] = in.Schema().Index(g)
	}
	type group struct {
		rep  relation.Tuple
		accs []*expr.Accumulator
	}
	var orderKeys []string
	groups := make(map[string]*group)
	for _, t := range in.Tuples() {
		k := t.KeyOn(gidx)
		g, ok := groups[k]
		if !ok {
			g = &group{rep: t, accs: NewAccumulators(n.Aggs, in.Schema())}
			groups[k] = g
			orderKeys = append(orderKeys, k)
		}
		if err := FoldAggregates(g.accs, n.Aggs, in.Schema(), t); err != nil {
			return nil, err
		}
	}
	out := relation.New(outSchema)
	for _, k := range orderKeys {
		g := groups[k]
		nt := make(relation.Tuple, 0, outSchema.Len())
		for _, gi := range gidx {
			nt = append(nt, g.rep[gi])
		}
		for _, acc := range g.accs {
			nt = append(nt, acc.Result())
		}
		out.Append(nt)
	}
	return out, nil
}

func NewAccumulators(aggs []expr.Aggregate, s *schema.Schema) []*expr.Accumulator {
	out := make([]*expr.Accumulator, len(aggs))
	for i, a := range aggs {
		isInt := false
		if a.Func == expr.Sum {
			if k, err := s.KindOf(a.Arg); err == nil && k == value.KindInt {
				isInt = true
			}
		}
		out[i] = expr.NewAccumulator(a.Func, isInt)
	}
	return out
}

func FoldAggregates(accs []*expr.Accumulator, aggs []expr.Aggregate, s *schema.Schema, t relation.Tuple) error {
	for i, a := range aggs {
		switch a.Func {
		case expr.CountAll:
			accs[i].Add(value.Value{})
		default:
			j := s.Index(a.Arg)
			accs[i].Add(t[j])
		}
	}
	return nil
}

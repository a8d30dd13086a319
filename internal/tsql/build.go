package tsql

import (
	"fmt"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/equiv"
	"tqp/internal/expr"
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// Query is a parsed statement.
type Query struct {
	ast  *queryAST
	Text string
}

// ResultType derives the query's result type per Definition 5.1: a list
// when ORDER BY is present at the outermost level, a set when DISTINCT is
// present without ORDER BY, and a multiset otherwise.
func (q *Query) ResultType() equiv.ResultType {
	switch {
	case len(q.ast.orderBy) > 0:
		return equiv.ResultList
	case q.ast.selects[0].distinct:
		return equiv.ResultSet
	default:
		return equiv.ResultMultiset
	}
}

// OrderBy returns the outermost ORDER BY list (the A of ≡L,A).
func (q *Query) OrderBy() relation.OrderSpec { return q.ast.orderBy }

// ValidTime reports whether the statement is sequenced.
func (q *Query) ValidTime() bool { return q.ast.validTime }

// Plan maps the query to its initial algebra expression over the catalog,
// following the paper's straightforward mapping (Section 2.1): the query is
// computed entirely in the DBMS and the final TS transfers the result to
// the stratum; sorting, coalescing and temporal duplicate elimination are
// applied on top to obtain the user-required format.
func (q *Query) Plan(cat *catalog.Catalog) (algebra.Node, error) {
	vt := q.ast.validTime
	branches := make([]algebra.Node, len(q.ast.selects))
	for i, sel := range q.ast.selects {
		b, err := buildSelect(sel, cat, vt)
		if err != nil {
			return nil, err
		}
		branches[i] = b
	}
	plan := branches[0]
	compound := len(branches) > 1
	for i, op := range q.ast.setOps {
		right := branches[i+1]
		switch {
		case op == "UNION ALL":
			plan = algebra.NewUnionAll(plan, right)
		case op == "UNION" && vt:
			plan = algebra.NewTUnion(plan, right)
		case op == "UNION":
			plan = algebra.NewUnion(plan, right)
		case op == "EXCEPT" && vt:
			plan = algebra.NewTDiff(plan, right)
		case op == "EXCEPT":
			plan = algebra.NewDiff(plan, right)
		case op == "INTERSECT" && vt:
			// Multiset intersection as the derived form l \ᵀ (l \ᵀ r):
			// per instant, min(n1, n2) occurrences survive.
			plan = algebra.NewTDiff(plan, algebra.NewTDiff(plan, right))
		default: // INTERSECT, nonsequenced
			plan = algebra.NewDiff(plan, algebra.NewDiff(plan, right))
		}
	}
	head := q.ast.selects[0]
	// For a compound query the per-branch duplicate eliminations do not
	// make the combined result duplicate-free; re-apply at the top.
	if head.distinct && compound {
		if vt {
			plan = algebra.NewTRdup(plan)
		} else {
			plan = algebra.NewRdup(plan)
		}
	}
	if head.coalesced {
		if !vt {
			return nil, fmt.Errorf("tsql: COALESCED requires a VALIDTIME query")
		}
		plan = algebra.NewCoal(plan)
	}
	if len(q.ast.orderBy) > 0 {
		plan = algebra.NewSort(q.ast.orderBy, plan)
	}
	plan = algebra.NewTransferS(plan)
	if err := algebra.Validate(plan); err != nil {
		return nil, fmt.Errorf("tsql: %w", err)
	}
	return plan, nil
}

// travelOf converts the parsed FOR restriction to the catalog's form.
func travelOf(t *travelAST) *catalog.Travel {
	if t.asOf {
		return &catalog.Travel{Kind: catalog.TravelAsOf, T: period.Chronon(t.t)}
	}
	return &catalog.Travel{Kind: catalog.TravelPeriod, Start: period.Chronon(t.start), End: period.Chronon(t.end)}
}

// buildSelect maps one SELECT block.
func buildSelect(sel *selectAST, cat *catalog.Catalog, vt bool) (algebra.Node, error) {
	if len(sel.from) == 0 {
		return nil, fmt.Errorf("tsql: empty FROM")
	}
	var plan algebra.Node
	for i, f := range sel.from {
		var rel *algebra.Rel
		var err error
		if f.travel != nil {
			// A FOR restriction lowers to an indexed period scan: the leaf's
			// name encodes the query period, and the catalog's resolution
			// layer prunes segments by their min/max chronon fences.
			rel, err = cat.TravelNode(f.name, travelOf(f.travel))
		} else {
			rel, err = cat.Node(f.name)
		}
		if err != nil {
			return nil, err
		}
		if i == 0 {
			plan = rel
			continue
		}
		if vt {
			plan = algebra.NewTProduct(plan, rel)
		} else {
			plan = algebra.NewProduct(plan, rel)
		}
	}
	if sel.where != nil {
		sch, err := plan.Schema()
		if err != nil {
			return nil, fmt.Errorf("tsql: %w", err)
		}
		plan = algebra.NewSelect(chrononLiterals(sel.where, sch), plan)
	}

	var aggs []expr.Aggregate
	var items []algebra.ProjItem
	for _, it := range sel.items {
		switch {
		case it.agg != nil:
			a := *it.agg
			if a.As == "" {
				a.As = it.as
			}
			if it.as != "" {
				a.As = it.as
			}
			if a.As == "" {
				a.As = defaultAggName(a)
			}
			aggs = append(aggs, a)
		default:
			as := it.as
			if as == "" {
				if c, ok := it.e.(expr.Col); ok {
					as = c.Name
				} else {
					as = it.e.String()
				}
			}
			items = append(items, algebra.ProjItem{Expr: it.e, As: as})
		}
	}

	switch {
	case len(aggs) > 0:
		groupBy := sel.groupBy
		// Plain selected columns must be grouping attributes.
		for _, it := range items {
			c, ok := it.Expr.(expr.Col)
			if !ok || !contains(groupBy, c.Name) {
				return nil, fmt.Errorf("tsql: non-aggregated item %s must appear in GROUP BY", it)
			}
		}
		if vt {
			plan = algebra.NewTAggregate(groupBy, aggs, plan)
		} else {
			plan = algebra.NewAggregate(groupBy, aggs, plan)
		}
	case sel.star:
		// No projection.
	case len(items) > 0:
		if vt {
			items = ensurePeriod(items)
		}
		plan = algebra.NewProject(items, plan)
	}

	if sel.distinct {
		if vt {
			plan = algebra.NewTRdup(plan)
		} else {
			plan = algebra.NewRdup(plan)
		}
	}
	return plan, nil
}

// chrononLiterals retypes the integer literals a WHERE clause compares with
// time-kinded attributes of the FROM schema as chronons. The grammar has no
// chronon literal, and values of different kinds compare by domain rank, so
// without this "T1 >= 5" would hold for every row and "T1 = 2" for none.
func chrononLiterals(p expr.Pred, s *schema.Schema) expr.Pred {
	switch q := p.(type) {
	case expr.Not:
		return expr.Neg(chrononLiterals(q.P, s))
	case expr.And:
		return expr.Conj(chrononLiterals(q.L, s), chrononLiterals(q.R, s))
	case expr.Or:
		return expr.Disj(chrononLiterals(q.L, s), chrononLiterals(q.R, s))
	case expr.Cmp:
		q.L, q.R = chrononAgainst(q.L, q.R, s), chrononAgainst(q.R, q.L, s)
		return q
	}
	return p
}

// chrononAgainst returns e as a chronon literal when it is an integer
// literal and other is a time-kinded attribute of s, else e itself.
func chrononAgainst(e, other expr.Expr, s *schema.Schema) expr.Expr {
	lit, isLit := e.(expr.Lit)
	col, isCol := other.(expr.Col)
	if !isLit || !isCol || lit.Val.Kind() != value.KindInt {
		return e
	}
	if k, err := s.KindOf(col.Name); err != nil || k != value.KindTime {
		return e
	}
	return expr.Literal(value.Time(period.Chronon(lit.Val.AsInt())))
}

// ensurePeriod appends the reserved time attributes to a sequenced
// projection when the statement did not name them: a VALIDTIME query's
// result carries the periods implicitly.
func ensurePeriod(items []algebra.ProjItem) []algebra.ProjItem {
	hasT1, hasT2 := false, false
	for _, it := range items {
		if it.As == schema.T1 {
			hasT1 = true
		}
		if it.As == schema.T2 {
			hasT2 = true
		}
	}
	if !hasT1 {
		items = append(items, algebra.ColItem(schema.T1))
	}
	if !hasT2 {
		items = append(items, algebra.ColItem(schema.T2))
	}
	return items
}

func defaultAggName(a expr.Aggregate) string {
	switch a.Func {
	case expr.CountAll:
		return "count"
	default:
		return fmt.Sprintf("%s_%s", a.Func, a.Arg)
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

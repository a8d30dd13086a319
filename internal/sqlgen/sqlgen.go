// Package sqlgen renders the subplans assigned to the underlying
// conventional DBMS (everything below a TS transfer, Section 2.1) as SQL
// text: "these are expressed in the language supported by the DBMS, e.g.,
// SQL, and are then passed to the DBMS".
//
// Conventional operations map to plain SQL-92. The temporal operations have
// no concise SQL form — which is the paper's motivation for the stratum —
// so they render as the well-known complex self-join formulations
// (coalescing à la Böhlen et al. [5] with NOT EXISTS subqueries), annotated
// as such. The generated text is used for display, logging and tests; the
// simulated DBMS executes the algebra directly.
package sqlgen

import (
	"fmt"
	"strings"

	"tqp/internal/algebra"
)

// Generate renders the subplan as a SQL query string.
func Generate(n algebra.Node) (string, error) {
	g := &generator{}
	sql, err := g.gen(n, 0)
	if err != nil {
		return "", err
	}
	return sql, nil
}

type generator struct {
	alias int
}

func (g *generator) nextAlias() string {
	g.alias++
	return fmt.Sprintf("q%d", g.alias)
}

func (g *generator) gen(n algebra.Node, depth int) (string, error) {
	ind := strings.Repeat("  ", depth)
	switch node := n.(type) {
	case *algebra.Rel:
		return ind + "SELECT * FROM " + node.Name, nil
	case *algebra.Select:
		inner, err := g.sub(node.Children()[0], depth)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%sSELECT * FROM %s WHERE %s", ind, inner, sqlPred(node.P.String())), nil
	case *algebra.Project:
		inner, err := g.sub(node.Children()[0], depth)
		if err != nil {
			return "", err
		}
		cols := make([]string, len(node.Items))
		for i, it := range node.Items {
			cols[i] = sqlItem(it)
		}
		return fmt.Sprintf("%sSELECT %s FROM %s", ind, strings.Join(cols, ", "), inner), nil
	case *algebra.Sort:
		inner, err := g.sub(node.Children()[0], depth)
		if err != nil {
			return "", err
		}
		keys := make([]string, len(node.Spec))
		for i, k := range node.Spec {
			keys[i] = quoteIdent(k.Attr) + " " + k.Dir.String()
		}
		return fmt.Sprintf("%sSELECT * FROM %s ORDER BY %s", ind, inner, strings.Join(keys, ", ")), nil
	case *algebra.Aggregate:
		inner, err := g.sub(node.Children()[0], depth)
		if err != nil {
			return "", err
		}
		cols := make([]string, 0, len(node.GroupBy)+len(node.Aggs))
		for _, gb := range node.GroupBy {
			cols = append(cols, quoteIdent(gb))
		}
		for _, a := range node.Aggs {
			cols = append(cols, a.String())
		}
		q := fmt.Sprintf("%sSELECT %s FROM %s", ind, strings.Join(cols, ", "), inner)
		if len(node.GroupBy) > 0 {
			gb := make([]string, len(node.GroupBy))
			for i, a := range node.GroupBy {
				gb[i] = quoteIdent(a)
			}
			q += " GROUP BY " + strings.Join(gb, ", ")
		}
		if node.Op() == algebra.OpTAggregate {
			q = commentBlock(ind, "temporal aggregation: evaluated at each instant via the "+
				"constant-interval decomposition; shipped to a conventional DBMS it requires "+
				"the fold/partition self-join idiom") + q
		}
		return q, nil
	case *algebra.Join:
		l, err := g.sub(node.Children()[0], depth)
		if err != nil {
			return "", err
		}
		r, err := g.sub(node.Children()[1], depth)
		if err != nil {
			return "", err
		}
		kw := "JOIN"
		if node.Op() == algebra.OpTJoin {
			kw = "JOIN /* temporal: overlap-intersecting */"
		}
		return fmt.Sprintf("%sSELECT * FROM %s %s %s ON %s", ind, l, kw, r, sqlPred(node.P.String())), nil
	}

	ch := n.Children()
	switch n.Op() {
	case algebra.OpRdup:
		inner, err := g.sub(ch[0], depth)
		if err != nil {
			return "", err
		}
		return ind + "SELECT DISTINCT * FROM " + inner, nil
	case algebra.OpUnionAll:
		return g.setop(ch, "UNION ALL", "", depth)
	case algebra.OpUnion:
		return g.setop(ch, "UNION ALL", "max-multiplicity union (Albert): kept as UNION ALL "+
			"plus an EXCEPT ALL correction of the smaller side in full SQL", depth)
	case algebra.OpDiff:
		return g.setop(ch, "EXCEPT ALL", "", depth)
	case algebra.OpProduct:
		l, err := g.sub(ch[0], depth)
		if err != nil {
			return "", err
		}
		r, err := g.sub(ch[1], depth)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%sSELECT * FROM %s CROSS JOIN %s", ind, l, r), nil
	case algebra.OpTProduct:
		l, err := g.sub(ch[0], depth)
		if err != nil {
			return "", err
		}
		r, err := g.sub(ch[1], depth)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf(
			"%sSELECT l.*, r.*, GREATEST(l.T1, r.T1) AS T1, LEAST(l.T2, r.T2) AS T2\n"+
				"%sFROM %s AS l JOIN %s AS r ON l.T1 < r.T2 AND r.T1 < l.T2",
			ind, ind, l, r), nil
	case algebra.OpTDiff:
		l, err := g.sub(ch[0], depth)
		if err != nil {
			return "", err
		}
		r, err := g.sub(ch[1], depth)
		if err != nil {
			return "", err
		}
		return commentBlock(ind, "temporal difference: per-snapshot NOT EXISTS over the "+
			"four period-overlap cases; fragments computed by the stratum natively") +
			fmt.Sprintf("%sSELECT l.* FROM %s AS l WHERE NOT EXISTS\n"+
				"%s  (SELECT 1 FROM %s AS r WHERE r.T1 <= l.T1 AND l.T2 <= r.T2 /* ... */)",
				ind, l, ind, r), nil
	case algebra.OpTRdup:
		inner, err := g.sub(ch[0], depth)
		if err != nil {
			return "", err
		}
		return commentBlock(ind, "temporal duplicate elimination: iterative period "+
			"subtraction (Section 2.5); in SQL a recursive fragmentation query") +
			ind + "SELECT * FROM " + inner + " /* rdupT */", nil
	case algebra.OpCoal:
		inner, err := g.sub(ch[0], depth)
		if err != nil {
			return "", err
		}
		return commentBlock(ind, "coalescing (Böhlen et al.): merge value-equivalent "+
			"tuples with adjacent periods") +
			fmt.Sprintf("%sSELECT f.Name_, f.T1, l.T2 FROM %s AS f, %s AS l\n"+
				"%sWHERE f.T1 < l.T2 AND NOT EXISTS (SELECT 1 /* gap between f and l */)\n"+
				"%s  AND NOT EXISTS (SELECT 1 /* extension beyond f or l */)",
				ind, inner, inner, ind, ind), nil
	case algebra.OpTUnion:
		return g.setop(ch, "UNION ALL", "temporal union: per-instant max multiplicity; "+
			"excess fragments computed from the right side", depth)
	case algebra.OpTransferS, algebra.OpTransferD:
		return "", fmt.Errorf("sqlgen: transfer operation inside a DBMS subplan")
	default:
		return "", fmt.Errorf("sqlgen: unsupported operator %s", n.Op())
	}
}

func (g *generator) sub(n algebra.Node, depth int) (string, error) {
	if rel, ok := n.(*algebra.Rel); ok {
		return rel.Name, nil
	}
	inner, err := g.gen(n, depth+1)
	if err != nil {
		return "", err
	}
	return "(\n" + inner + "\n" + strings.Repeat("  ", depth) + ") AS " + g.nextAlias(), nil
}

func (g *generator) setop(ch []algebra.Node, op, comment string, depth int) (string, error) {
	ind := strings.Repeat("  ", depth)
	l, err := g.gen(ch[0], depth+1)
	if err != nil {
		return "", err
	}
	r, err := g.gen(ch[1], depth+1)
	if err != nil {
		return "", err
	}
	out := ""
	if comment != "" {
		out = commentBlock(ind, comment)
	}
	return out + l + "\n" + ind + op + "\n" + r, nil
}

func commentBlock(ind, text string) string {
	return ind + "-- " + text + "\n"
}

// quoteIdent quotes attribute names that are not plain identifiers (the
// qualified "1.T1" style needs quoting in SQL).
func quoteIdent(name string) string {
	if strings.ContainsAny(name, ". ") {
		return `"` + name + `"`
	}
	return name
}

// sqlPred patches the algebra's predicate rendering into SQL syntax.
func sqlPred(s string) string {
	return strings.NewReplacer("TRUE", "1=1").Replace(s)
}

func sqlItem(it algebra.ProjItem) string {
	if c := it.String(); !strings.Contains(c, " AS ") {
		return quoteIdent(c)
	}
	return it.Expr.String() + " AS " + quoteIdent(it.As)
}

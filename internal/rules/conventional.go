package rules

import (
	"tqp/internal/algebra"
	"tqp/internal/equiv"
	"tqp/internal/expr"
	"tqp/internal/schema"
)

// ConventionalRules returns the conventional relational-algebra rules of
// Section 4.1, extended to lists and to the temporal operations. Most are
// valid for lists (≡L); commutativity rules "satisfy only the ≡M
// equivalence because the different order of the arguments leads to
// differently ordered tuples in the results"; and "a few rules, involving
// regular and temporal union, have equivalence types weaker than ≡M" — the
// temporal-union commutativity and associativity rules here are ≡SM.
func ConventionalRules() []Rule {
	var out []Rule
	out = append(out, selectRules()...)
	out = append(out, projectRules()...)
	out = append(out, commuteRules()...)
	out = append(out, idiomRules()...)
	return out
}

func selectRules() []Rule {
	return []Rule{
		{
			Name: "P1",
			Type: equiv.List,
			Doc:  "σp(σq(r)) ≡L σq(σp(r))",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				outer, ok := n.(*algebra.Select)
				if !ok {
					return nil
				}
				inner, ok := outer.Children()[0].(*algebra.Select)
				if !ok {
					return nil
				}
				r := inner.Children()[0]
				repl := algebra.NewSelect(inner.P, algebra.NewSelect(outer.P, r))
				return rw(repl, here, c0, c00)
			},
		},
		{
			Name: "P2",
			Type: equiv.List,
			Doc:  "σ(p∧q)(r) ≡L σp(σq(r))",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				sel, ok := n.(*algebra.Select)
				if !ok {
					return nil
				}
				conj, ok := sel.P.(expr.And)
				if !ok {
					return nil
				}
				r := sel.Children()[0]
				repl := algebra.NewSelect(conj.L, algebra.NewSelect(conj.R, r))
				return rw(repl, here, c0)
			},
		},
		{
			Name: "P2r",
			Type: equiv.List,
			Doc:  "σp(σq(r)) ≡L σ(p∧q)(r)",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				outer, ok := n.(*algebra.Select)
				if !ok {
					return nil
				}
				inner, ok := outer.Children()[0].(*algebra.Select)
				if !ok {
					return nil
				}
				r := inner.Children()[0]
				repl := algebra.NewSelect(expr.Conj(outer.P, inner.P), r)
				return rw(repl, here, c0, c00)
			},
		},
		{
			Name: "P3",
			Type: equiv.List,
			Doc:  "σp(r1 × r2) ≡L σp'(r1) × r2, if p references only r1",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				return pushSelectIntoProduct(n, 0)
			},
		},
		{
			Name: "P4",
			Type: equiv.List,
			Doc:  "σp(r1 × r2) ≡L r1 × σp'(r2), if p references only r2",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				return pushSelectIntoProduct(n, 1)
			},
		},
		{
			Name: "P5",
			Type: equiv.List,
			Doc:  "σp(r1 ⊔ r2) ≡L σp(r1) ⊔ σp(r2); likewise for ∪ and (time-free) ∪T",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				sel, ok := n.(*algebra.Select)
				if !ok {
					return nil
				}
				u := sel.Children()[0]
				switch u.Op() {
				case algebra.OpUnionAll, algebra.OpUnion:
				case algebra.OpTUnion:
					// ∪ᵀ fabricates fragment periods, so predicates over
					// T1/T2 do not commute with it.
					if expr.UsesTime(sel.P) {
						return nil
					}
				default:
					return nil
				}
				ch := u.Children()
				repl := u.WithChildren(
					algebra.NewSelect(sel.P, ch[0]),
					algebra.NewSelect(sel.P, ch[1]))
				return rw(repl, here, c0, c00, c01)
			},
		},
		{
			Name: "P6",
			Type: equiv.List,
			Doc:  "σp(r1 \\ r2) ≡L σp(r1) \\ σp(r2); likewise for (time-free) \\T",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				sel, ok := n.(*algebra.Select)
				if !ok {
					return nil
				}
				d := sel.Children()[0]
				switch d.Op() {
				case algebra.OpDiff:
					// The difference's result schema qualifies time
					// attributes; a predicate over them cannot be pushed
					// verbatim. Restrict to predicates valid on both sides.
					if usesQualifiedTime(sel.P) {
						return nil
					}
				case algebra.OpTDiff:
					if expr.UsesTime(sel.P) {
						return nil
					}
				default:
					return nil
				}
				ch := d.Children()
				repl := d.WithChildren(
					algebra.NewSelect(sel.P, ch[0]),
					algebra.NewSelect(sel.P, ch[1]))
				return rw(repl, here, c0, c00, c01)
			},
		},
		{
			Name: "P6b",
			Type: equiv.List,
			Doc:  "σp(r1 \\ r2) ≡L σp(r1) \\ r2; likewise for (time-free) \\T",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				sel, ok := n.(*algebra.Select)
				if !ok {
					return nil
				}
				d := sel.Children()[0]
				switch d.Op() {
				case algebra.OpDiff:
					if usesQualifiedTime(sel.P) {
						return nil
					}
				case algebra.OpTDiff:
					if expr.UsesTime(sel.P) {
						return nil
					}
				default:
					return nil
				}
				ch := d.Children()
				repl := d.WithChildren(algebra.NewSelect(sel.P, ch[0]), ch[1])
				return rw(repl, here, c0, c00, c01)
			},
		},
	}
}

// pushSelectIntoProduct pushes σp below a × or ×ᵀ into argument side (0 or
// 1) when every attribute of p resolves there, translating qualified names.
func pushSelectIntoProduct(n algebra.Node, side int) *Rewrite {
	sel, ok := n.(*algebra.Select)
	if !ok {
		return nil
	}
	prod := sel.Children()[0]
	if prod.Op() != algebra.OpProduct && prod.Op() != algebra.OpTProduct {
		return nil
	}
	ch := prod.Children()
	sch, err := ch[side].Schema()
	if err != nil {
		return nil
	}
	renames := make(map[string]string)
	for _, a := range expr.AttrsOf(sel.P) {
		src, ok := resolveToSide(a, sch, side)
		if !ok {
			return nil
		}
		if src != a {
			renames[a] = src
		}
	}
	p := sel.P
	if len(renames) > 0 {
		var err error
		p, err = expr.RenamePred(p, renames)
		if err != nil {
			return nil
		}
	}
	newCh := []algebra.Node{ch[0], ch[1]}
	newCh[side] = algebra.NewSelect(p, ch[side])
	repl := prod.WithChildren(newCh...)
	return rw(repl, here, c0, c00, c01)
}

// resolveToSide maps a product-schema attribute name to the argument
// schema's name for the given side, or reports failure. The fresh T1/T2 of
// a temporal product belong to neither side.
func resolveToSide(name string, sideSchema *schema.Schema, side int) (string, bool) {
	if name == schema.T1 || name == schema.T2 {
		// Either the new intersection period of ×ᵀ or an unqualified time
		// attribute: never pushable.
		return "", false
	}
	if trimmed, ok := trimQualifier(name, side+1); ok {
		if sideSchema.Has(trimmed) {
			return trimmed, true
		}
		return "", false
	}
	if _, other := trimQualifier(name, 2-side); other {
		return "", false
	}
	if sideSchema.Has(name) {
		return name, true
	}
	return "", false
}

func usesQualifiedTime(p expr.Pred) bool {
	set := make(map[string]bool)
	p.Attrs(set)
	return set["1."+schema.T1] || set["1."+schema.T2] ||
		set["2."+schema.T1] || set["2."+schema.T2]
}

func projectRules() []Rule {
	return []Rule{
		{
			Name: "PP1",
			Type: equiv.List,
			Doc:  "πL(πM(r)) ≡L π(L∘M)(r)",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				outer, ok := n.(*algebra.Project)
				if !ok {
					return nil
				}
				inner, ok := outer.Children()[0].(*algebra.Project)
				if !ok {
					return nil
				}
				env := make(map[string]expr.Expr, len(inner.Items))
				for _, it := range inner.Items {
					env[it.As] = it.Expr
				}
				items := make([]algebra.ProjItem, len(outer.Items))
				for i, it := range outer.Items {
					e, err := expr.SubstExpr(it.Expr, env)
					if err != nil {
						return nil
					}
					items[i] = algebra.ProjItem{Expr: e, As: it.As}
				}
				r := inner.Children()[0]
				repl := algebra.NewProject(items, r)
				return rw(repl, here, c0, c00)
			},
		},
		{
			Name: "PP2",
			Type: equiv.List,
			Doc:  "σp(πL(r)) ≡L πL(σ(p∘L)(r))",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				sel, ok := n.(*algebra.Select)
				if !ok {
					return nil
				}
				proj, ok := sel.Children()[0].(*algebra.Project)
				if !ok {
					return nil
				}
				env := make(map[string]expr.Expr, len(proj.Items))
				for _, it := range proj.Items {
					env[it.As] = it.Expr
				}
				p, err := expr.SubstPred(sel.P, env)
				if err != nil {
					return nil
				}
				r := proj.Children()[0]
				repl := proj.WithChildren(algebra.NewSelect(p, r))
				return rw(repl, here, c0, c00)
			},
		},
		{
			Name: "PP2r",
			Type: equiv.List,
			Doc:  "πL(σp(r)) ≡L σp'(πL(r)), if p survives the projection",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				proj, ok := n.(*algebra.Project)
				if !ok {
					return nil
				}
				sel, ok := proj.Children()[0].(*algebra.Select)
				if !ok {
					return nil
				}
				// p can move above π only when every attribute it uses is
				// projected through as a pure column.
				outName := make(map[string]string)
				for _, it := range proj.Items {
					if c, ok := it.Expr.(expr.Col); ok {
						if _, seen := outName[c.Name]; !seen {
							outName[c.Name] = it.As
						}
					}
				}
				renames := make(map[string]string)
				for _, a := range expr.AttrsOf(sel.P) {
					out, ok := outName[a]
					if !ok {
						return nil
					}
					if out != a {
						renames[a] = out
					}
				}
				p := sel.P
				if len(renames) > 0 {
					var err error
					p, err = expr.RenamePred(p, renames)
					if err != nil {
						return nil
					}
				}
				r := sel.Children()[0]
				repl := algebra.NewSelect(p, proj.WithChildren(r))
				return rw(repl, here, c0, c00)
			},
		},
		{
			Name: "PP3",
			Type: equiv.List,
			Doc:  "πL(r1 × r2) ≡L πL'(π1(r1) × π2(r2)) — column pruning",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				return pruneProductColumns(n, st)
			},
		},
	}
}

func commuteRules() []Rule {
	return []Rule{
		{
			Name: "PC1",
			Type: equiv.Multiset,
			Doc:  "r1 × r2 ≡M π(r2 × r1) — product commutativity with reordering projection",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				return commuteProduct(n, st)
			},
		},
		{
			Name: "PC2",
			Type: equiv.Multiset,
			Doc:  "r1 ⊔ r2 ≡M r2 ⊔ r1",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				if n.Op() != algebra.OpUnionAll {
					return nil
				}
				ch := n.Children()
				repl := algebra.NewUnionAll(ch[1], ch[0])
				return rw(repl, here, c0, c1)
			},
		},
		{
			Name: "PC3",
			Type: equiv.Multiset,
			Doc:  "r1 ∪ r2 ≡M r2 ∪ r1",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				if n.Op() != algebra.OpUnion {
					return nil
				}
				ch := n.Children()
				repl := algebra.NewUnion(ch[1], ch[0])
				return rw(repl, here, c0, c1)
			},
		},
		{
			Name: "PC4",
			Type: equiv.SnapshotMultiset,
			Doc:  "r1 ∪T r2 ≡SM r2 ∪T r1 (weaker than ≡M: fragmentation differs)",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				if n.Op() != algebra.OpTUnion {
					return nil
				}
				ch := n.Children()
				repl := algebra.NewTUnion(ch[1], ch[0])
				return rw(repl, here, c0, c1)
			},
		},
		{
			Name: "PA1",
			Type: equiv.List,
			Doc:  "(r1 ⊔ r2) ⊔ r3 ≡L r1 ⊔ (r2 ⊔ r3)",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				if n.Op() != algebra.OpUnionAll {
					return nil
				}
				ch := n.Children()
				if ch[0].Op() != algebra.OpUnionAll {
					return nil
				}
				inner := ch[0].Children()
				repl := algebra.NewUnionAll(inner[0], algebra.NewUnionAll(inner[1], ch[1]))
				return rw(repl, here, c0, c00, c01, c1)
			},
		},
		{
			Name: "PA2",
			Type: equiv.Multiset,
			Doc:  "(r1 ∪ r2) ∪ r3 ≡M r1 ∪ (r2 ∪ r3)",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				if n.Op() != algebra.OpUnion {
					return nil
				}
				ch := n.Children()
				if ch[0].Op() != algebra.OpUnion {
					return nil
				}
				inner := ch[0].Children()
				repl := algebra.NewUnion(inner[0], algebra.NewUnion(inner[1], ch[1]))
				return rw(repl, here, c0, c00, c01, c1)
			},
		},
		{
			Name: "PA3",
			Type: equiv.SnapshotMultiset,
			Doc:  "(r1 ∪T r2) ∪T r3 ≡SM r1 ∪T (r2 ∪T r3)",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				if n.Op() != algebra.OpTUnion {
					return nil
				}
				ch := n.Children()
				if ch[0].Op() != algebra.OpTUnion {
					return nil
				}
				inner := ch[0].Children()
				repl := algebra.NewTUnion(inner[0], algebra.NewTUnion(inner[1], ch[1]))
				return rw(repl, here, c0, c00, c01, c1)
			},
		},
	}
}

func idiomRules() []Rule {
	return []Rule{
		{
			Name: "PJ1",
			Type: equiv.List,
			Doc:  "σp(r1 × r2) ≡L r1 ⋈p r2 — join idiom introduction",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				sel, ok := n.(*algebra.Select)
				if !ok {
					return nil
				}
				prod := sel.Children()[0]
				switch prod.Op() {
				case algebra.OpProduct:
					ch := prod.Children()
					return rw(algebra.NewJoin(sel.P, ch[0], ch[1]), here, c0, c00, c01)
				case algebra.OpTProduct:
					ch := prod.Children()
					return rw(algebra.NewTJoin(sel.P, ch[0], ch[1]), here, c0, c00, c01)
				default:
					return nil
				}
			},
		},
		{
			Name: "PJ1r",
			Type: equiv.List,
			Doc:  "r1 ⋈p r2 ≡L σp(r1 × r2) — join idiom expansion",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				j, ok := n.(*algebra.Join)
				if !ok {
					return nil
				}
				return rw(j.Expand(), here, c0, c1)
			},
		},
	}
}

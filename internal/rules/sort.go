package rules

import (
	"tqp/internal/algebra"
	"tqp/internal/equiv"
	"tqp/internal/expr"
	"tqp/internal/relation"
	"tqp/internal/schema"
)

// SortRules returns the sorting rules S1–S3 of Figure 4 and the
// sort-pushdown family of Section 4.4: "if we wish to sort the result of
// some operation, the sorting can be performed on the argument relation(s)
// for that operation if the operation does not destroy the ordering".
func SortRules() []Rule {
	return []Rule{
		{
			Name: "S1",
			Type: equiv.List,
			Doc:  "sortA(r) ≡L r, if IsPrefixOf(A, Order(r))",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				srt, ok := n.(*algebra.Sort)
				if !ok {
					return nil
				}
				child := srt.Children()[0]
				cs, ok := st.State(child)
				if !ok || !srt.Spec.IsPrefixOf(cs.Order) {
					return nil
				}
				return rw(child, here, c0)
			},
		},
		{
			Name: "S2",
			Type: equiv.Multiset,
			Doc:  "sortA(r) ≡M r",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				if n.Op() != algebra.OpSort {
					return nil
				}
				child := n.Children()[0]
				return rw(child, here, c0)
			},
		},
		{
			Name: "S3",
			Type: equiv.List,
			Doc:  "sortA(sortB(r)) ≡L sortA(r), if IsPrefixOf(B, A)",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				outer, ok := n.(*algebra.Sort)
				if !ok {
					return nil
				}
				innerNode := outer.Children()[0]
				inner, ok := innerNode.(*algebra.Sort)
				if !ok || !inner.Spec.IsPrefixOf(outer.Spec) {
					return nil
				}
				repl := algebra.NewSort(outer.Spec, inner.Children()[0])
				return rw(repl, here, c0, c00)
			},
		},
		{
			Name:       "S4",
			Type:       equiv.List,
			PushesSort: true,
			Doc:        "sortA(σP(r)) ≡L σP(sortA(r))",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				srt, ok := n.(*algebra.Sort)
				if !ok {
					return nil
				}
				sel, ok := srt.Children()[0].(*algebra.Select)
				if !ok {
					return nil
				}
				inner := sel.Children()[0]
				repl := algebra.NewSelect(sel.P, algebra.NewSort(srt.Spec, inner))
				return rw(repl, here, c0, c00)
			},
		},
		{
			Name: "S4r",
			Type: equiv.List,
			Doc:  "σP(sortA(r)) ≡L sortA(σP(r))",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				sel, ok := n.(*algebra.Select)
				if !ok {
					return nil
				}
				srt, ok := sel.Children()[0].(*algebra.Sort)
				if !ok {
					return nil
				}
				inner := srt.Children()[0]
				repl := algebra.NewSort(srt.Spec, algebra.NewSelect(sel.P, inner))
				return rw(repl, here, c0, c00)
			},
		},
		{
			Name:       "S5",
			Type:       equiv.List,
			PushesSort: true,
			Doc:        "sortA(π(r)) ≡L π(sortA'(r)), if A's attributes are pure columns of r",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				srt, ok := n.(*algebra.Sort)
				if !ok {
					return nil
				}
				proj, ok := srt.Children()[0].(*algebra.Project)
				if !ok {
					return nil
				}
				// Translate the sort keys through the projection: only
				// possible when each key is a pure column item.
				sourceOf := make(map[string]string)
				for _, it := range proj.Items {
					if c, ok := it.Expr.(expr.Col); ok {
						sourceOf[it.As] = c.Name
					}
				}
				inner := make(relation.OrderSpec, 0, len(srt.Spec))
				for _, k := range srt.Spec {
					src, ok := sourceOf[k.Attr]
					if !ok {
						return nil
					}
					inner = append(inner, relation.OrderKey{Attr: src, Dir: k.Dir})
				}
				child := proj.Children()[0]
				repl := proj.WithChildren(algebra.NewSort(inner, child))
				return rw(repl, here, c0, c00)
			},
		},
		{
			Name:       "S6",
			Type:       equiv.List,
			PushesSort: true,
			Doc:        "sortA(r1 × r2) ≡L sortA(r1') × r2, if A is over r1's attributes",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				return sortIntoLeft(n, st, algebra.OpProduct, false)
			},
		},
		{
			Name:       "S7",
			Type:       equiv.List,
			PushesSort: true,
			Doc:        "sortA(r1 \\ r2) ≡L sortA(r1') \\ r2, if A is over r1's attributes",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				return sortIntoLeft(n, st, algebra.OpDiff, false)
			},
		},
		{
			// A stable sort on time-free keys permutes value-equivalence
			// groups wholesale and preserves the order within each group —
			// and the group-local temporal operations (\ᵀ, coalᵀ, rdupᵀ)
			// only observe within-group order — so S8–S10 need no
			// snapshot-distinctness precondition.
			Name:       "S8",
			Type:       equiv.List,
			PushesSort: true,
			Doc:        "sortA(r1 \\T r2) ≡L sortA(r1) \\T r2, if A is time-free",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				return sortIntoLeft(n, st, algebra.OpTDiff, true)
			},
		},
		{
			Name:       "S9",
			Type:       equiv.List,
			PushesSort: true,
			Doc:        "sortA(coalT(r)) ≡L coalT(sortA(r)), if A is time-free",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				srt, ok := n.(*algebra.Sort)
				if !ok {
					return nil
				}
				coal := srt.Children()[0]
				if coal.Op() != algebra.OpCoal {
					return nil
				}
				if usesTimeAttrs(srt.Spec) {
					return nil
				}
				inner := coal.Children()[0]
				repl := algebra.NewCoal(algebra.NewSort(srt.Spec, inner))
				return rw(repl, here, c0, c00)
			},
		},
		{
			Name:       "S10",
			Type:       equiv.List,
			PushesSort: true,
			Doc:        "sortA(rdupT(r)) ≡L rdupT(sortA(r)), if A is time-free",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				srt, ok := n.(*algebra.Sort)
				if !ok {
					return nil
				}
				rd := srt.Children()[0]
				if rd.Op() != algebra.OpTRdup {
					return nil
				}
				if usesTimeAttrs(srt.Spec) {
					return nil
				}
				inner := rd.Children()[0]
				repl := algebra.NewTRdup(algebra.NewSort(srt.Spec, inner))
				return rw(repl, here, c0, c00)
			},
		},
	}
}

// sortIntoLeft pushes a sort into the left argument of a binary operation
// that retains its left argument's order.
func sortIntoLeft(n algebra.Node, st Lookup, op algebra.Op, timeFreeOnly bool) *Rewrite {
	srt, ok := n.(*algebra.Sort)
	if !ok {
		return nil
	}
	bin := srt.Children()[0]
	if bin.Op() != op {
		return nil
	}
	ch := bin.Children()
	ls, ok := st.State(ch[0])
	if !ok {
		return nil
	}
	if timeFreeOnly && usesTimeAttrs(srt.Spec) {
		return nil
	}
	// Each sort key must resolve to a left-argument attribute; for the
	// conventional operations the result schema may have qualified the
	// name, in which case we translate it back.
	inner := make(relation.OrderSpec, 0, len(srt.Spec))
	for _, k := range srt.Spec {
		src := k.Attr
		if !ls.Schema.Has(src) {
			trimmed, ok := trimQualifier(src, 1)
			if !ok || !ls.Schema.Has(trimmed) {
				return nil
			}
			src = trimmed
		}
		inner = append(inner, relation.OrderKey{Attr: src, Dir: k.Dir})
	}
	repl := bin.WithChildren(algebra.NewSort(inner, ch[0]), ch[1])
	return rw(repl, here, c0, c00, c01)
}

func usesTimeAttrs(spec interface{ Attrs() []string }) bool {
	for _, a := range spec.Attrs() {
		if a == schema.T1 || a == schema.T2 {
			return true
		}
	}
	return false
}

func trimQualifier(name string, arg int) (string, bool) {
	prefix := "1."
	if arg == 2 {
		prefix = "2."
	}
	if len(name) > len(prefix) && name[:len(prefix)] == prefix {
		return name[len(prefix):], true
	}
	return "", false
}

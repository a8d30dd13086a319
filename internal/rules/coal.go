package rules

import (
	"tqp/internal/algebra"
	"tqp/internal/equiv"
	"tqp/internal/expr"
	"tqp/internal/schema"
)

// CoalRules returns the coalescing rules C1–C10 of Figure 4, with both
// readings where both are useful to the enumerator.
func CoalRules() []Rule {
	return []Rule{
		{
			Name: "C1",
			Type: equiv.List,
			Doc:  "coalT(r) ≡L r, if r is coalesced",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				if n.Op() != algebra.OpCoal {
					return nil
				}
				child := n.Children()[0]
				cs, ok := st.State(child)
				if !ok || !cs.Coalesced {
					return nil
				}
				return rw(child, here, c0)
			},
		},
		{
			Name: "C2",
			Type: equiv.SnapshotMultiset,
			Doc:  "coalT(r) ≡SM r",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				if n.Op() != algebra.OpCoal {
					return nil
				}
				child := n.Children()[0]
				return rw(child, here, c0)
			},
		},
		{
			Name:      "C2r",
			Type:      equiv.SnapshotMultiset,
			Doc:       "r ≡SM coalT(r) (expanding)",
			Expanding: true,
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				s, ok := st.State(n)
				if !ok || !s.Schema.Temporal() {
					return nil
				}
				if n.Op() == algebra.OpCoal {
					return nil
				}
				return rw(algebra.NewCoal(n), here)
			},
		},
		{
			Name: "C3",
			Type: equiv.List,
			Doc:  "coalT(σP(r)) ≡L σP(coalT(r)), if T1,T2 ∉ attr(P)",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				if n.Op() != algebra.OpCoal {
					return nil
				}
				sel, ok := n.Children()[0].(*algebra.Select)
				if !ok || expr.UsesTime(sel.P) {
					return nil
				}
				inner := sel.Children()[0]
				repl := algebra.NewSelect(sel.P, algebra.NewCoal(inner))
				return rw(repl, here, c0, c00)
			},
		},
		{
			Name: "C3r",
			Type: equiv.List,
			Doc:  "σP(coalT(r)) ≡L coalT(σP(r)), if T1,T2 ∉ attr(P)",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				sel, ok := n.(*algebra.Select)
				if !ok || expr.UsesTime(sel.P) {
					return nil
				}
				coal := sel.Children()[0]
				if coal.Op() != algebra.OpCoal {
					return nil
				}
				inner := coal.Children()[0]
				repl := algebra.NewCoal(algebra.NewSelect(sel.P, inner))
				return rw(repl, here, c0, c00)
			},
		},
		{
			Name: "C4",
			Type: equiv.Set,
			Doc:  "π{f1..fn}(coalT(r)) ≡S π{f1..fn}(r), if T1,T2 ∉ attr(f1..fn)",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				proj, ok := n.(*algebra.Project)
				if !ok {
					return nil
				}
				coal := proj.Children()[0]
				if coal.Op() != algebra.OpCoal {
					return nil
				}
				for _, it := range proj.Items {
					if expr.UsesTime(it.Expr) {
						return nil
					}
				}
				inner := coal.Children()[0]
				repl := proj.WithChildren(inner)
				return rw(repl, here, c0, c00)
			},
		},
		{
			// The paper states C5 with ≡L. Under this package's coalᵀ,
			// which merge partner absorbs an adjacent tuple depends on
			// what was already merged, so in the presence of snapshot
			// duplicates the two sides can differ even as multisets. Both
			// sides are ≡SM to r1 ⊔ r2 by rule C2, so ≡SM always holds —
			// that is the level we claim and TestRuleEquivalences
			// property-tests; README lists it under Deviations from the
			// paper.
			Name: "C5",
			Type: equiv.SnapshotMultiset,
			Doc:  "coalT(coalT(r1) ⊔ coalT(r2)) ≡SM coalT(r1 ⊔ r2)",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				if n.Op() != algebra.OpCoal {
					return nil
				}
				u := n.Children()[0]
				if u.Op() != algebra.OpUnionAll {
					return nil
				}
				ch := u.Children()
				if ch[0].Op() != algebra.OpCoal || ch[1].Op() != algebra.OpCoal {
					return nil
				}
				l, r := ch[0].Children()[0], ch[1].Children()[0]
				repl := algebra.NewCoal(algebra.NewUnionAll(l, r))
				return rw(repl, here, c0, c00, c01, c000, c010)
			},
		},
		{
			// Downgraded from the paper's ≡L for the same reason as C5.
			Name: "C6",
			Type: equiv.SnapshotMultiset,
			Doc:  "coalT(coalT(r1) ∪T coalT(r2)) ≡SM coalT(r1 ∪T r2)",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				if n.Op() != algebra.OpCoal {
					return nil
				}
				u := n.Children()[0]
				if u.Op() != algebra.OpTUnion {
					return nil
				}
				ch := u.Children()
				if ch[0].Op() != algebra.OpCoal || ch[1].Op() != algebra.OpCoal {
					return nil
				}
				l, r := ch[0].Children()[0], ch[1].Children()[0]
				repl := algebra.NewCoal(algebra.NewTUnion(l, r))
				return rw(repl, here, c0, c00, c01, c000, c010)
			},
		},
		{
			Name: "C7",
			Type: equiv.List,
			Doc:  "coalT(aggrT(coalT(r))) ≡L coalT(aggrT(r))",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				if n.Op() != algebra.OpCoal {
					return nil
				}
				agg, ok := n.Children()[0].(*algebra.Aggregate)
				if !ok || agg.Op() != algebra.OpTAggregate {
					return nil
				}
				coal := agg.Children()[0]
				if coal.Op() != algebra.OpCoal {
					return nil
				}
				inner := coal.Children()[0]
				repl := algebra.NewCoal(agg.WithChildren(inner))
				return rw(repl, here, c0, c00, c000)
			},
		},
		{
			Name: "C8",
			Type: equiv.List,
			Doc:  "coalT(π{f..,T1,T2}(coalT(r))) ≡L coalT(π{f..,T1,T2}(r)), if r has no duplicates in snapshots",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				if n.Op() != algebra.OpCoal {
					return nil
				}
				proj, ok := n.Children()[0].(*algebra.Project)
				if !ok || !projKeepsPeriods(proj) {
					return nil
				}
				coal := proj.Children()[0]
				if coal.Op() != algebra.OpCoal {
					return nil
				}
				inner := coal.Children()[0]
				is, ok := st.State(inner)
				if !ok || !is.SnapshotDistinct {
					return nil
				}
				repl := algebra.NewCoal(proj.WithChildren(inner))
				return rw(repl, here, c0, c00, c000)
			},
		},
		{
			// The paper states C9 with ≡L. Our coalᵀ places a merged tuple
			// at its earliest fragment's position, which can reorder the
			// pairs the temporal product emits relative to coalescing its
			// result, so only the multiset level survives; the contents
			// (and hence ≡M) are exact; TestRuleEquivalences checks ≡M, and
			// README lists it under Deviations from the paper.
			Name: "C9",
			Type: equiv.Multiset,
			Doc:  "coalT(πA(r1 ×T r2)) ≡M πA(coalT(r1) ×T coalT(r2)), A = Σ \\ {1.T1,1.T2,2.T1,2.T2}, if r1, r2 have no duplicates in snapshots",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				if n.Op() != algebra.OpCoal {
					return nil
				}
				proj, ok := n.Children()[0].(*algebra.Project)
				if !ok {
					return nil
				}
				prod := proj.Children()[0]
				if prod.Op() != algebra.OpTProduct {
					return nil
				}
				if !isStampDroppingProjection(proj, prod) {
					return nil
				}
				ch := prod.Children()
				ls, ok1 := st.State(ch[0])
				rs, ok2 := st.State(ch[1])
				if !ok1 || !ok2 || !ls.SnapshotDistinct || !rs.SnapshotDistinct {
					return nil
				}
				repl := proj.WithChildren(
					algebra.NewTProduct(algebra.NewCoal(ch[0]), algebra.NewCoal(ch[1])))
				return rw(repl, here, c0, c00, c000, c001)
			},
		},
		{
			Name: "C10",
			Type: equiv.Multiset,
			Doc:  "coalT(r1 \\T r2) ≡M coalT(r1) \\T coalT(r2), if r1 has no duplicates in snapshots",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				if n.Op() != algebra.OpCoal {
					return nil
				}
				diff := n.Children()[0]
				if diff.Op() != algebra.OpTDiff {
					return nil
				}
				ch := diff.Children()
				ls, ok := st.State(ch[0])
				if !ok || !ls.SnapshotDistinct {
					return nil
				}
				repl := algebra.NewTDiff(algebra.NewCoal(ch[0]), algebra.NewCoal(ch[1]))
				return rw(repl, here, c0, c00, c01)
			},
		},
		{
			Name: "C10r",
			Type: equiv.Multiset,
			Doc:  "coalT(r1) \\T coalT(r2) ≡M coalT(r1 \\T r2), if r1 has no duplicates in snapshots",
			Apply: func(n algebra.Node, st Lookup) *Rewrite {
				if n.Op() != algebra.OpTDiff {
					return nil
				}
				ch := n.Children()
				if ch[0].Op() != algebra.OpCoal || ch[1].Op() != algebra.OpCoal {
					return nil
				}
				l, r := ch[0].Children()[0], ch[1].Children()[0]
				ls, ok := st.State(l)
				if !ok || !ls.SnapshotDistinct {
					return nil
				}
				repl := algebra.NewCoal(algebra.NewTDiff(l, r))
				return rw(repl, here, c0, c1, c00, c10)
			},
		},
	}
}

// projKeepsPeriods reports whether a projection keeps T1 and T2 as identity
// columns (the π_{f1..fn,T1,T2} shape of rules C8 and the ≡SM variants).
func projKeepsPeriods(p *algebra.Project) bool {
	t1, t2 := false, false
	for _, it := range p.Items {
		if c, ok := it.Expr.(expr.Col); ok {
			if c.Name == schema.T1 && it.As == schema.T1 {
				t1 = true
			}
			if c.Name == schema.T2 && it.As == schema.T2 {
				t2 = true
			}
		}
	}
	return t1 && t2
}

// isStampDroppingProjection reports whether proj is exactly the πA of rule
// C9: the identity projection of the temporal product's schema minus the
// four qualified timestamp attributes.
func isStampDroppingProjection(proj *algebra.Project, prod algebra.Node) bool {
	ps, err := prod.Schema()
	if err != nil {
		return false
	}
	dropped := map[string]bool{
		"1." + schema.T1: true, "1." + schema.T2: true,
		"2." + schema.T1: true, "2." + schema.T2: true,
	}
	want := make([]string, 0, ps.Len())
	for _, a := range ps.Attributes() {
		if !dropped[a.Name] {
			want = append(want, a.Name)
		}
	}
	if len(proj.Items) != len(want) {
		return false
	}
	for i, it := range proj.Items {
		c, ok := it.Expr.(expr.Col)
		if !ok || c.Name != want[i] || it.As != want[i] {
			return false
		}
	}
	return true
}

package rules

import (
	"tqp/internal/algebra"
	"tqp/internal/equiv"
	"tqp/internal/props"
)

// DupRules returns the duplicate-elimination rules D1–D6 of Figure 4,
// including the expanding right-to-left readings of D3/D4 that introduce a
// duplicate elimination.
func DupRules() []Rule {
	return []Rule{
		{
			Name: "D1",
			Type: equiv.List,
			Doc:  "rdup(r) ≡L r, if r does not have duplicates",
			Apply: func(n algebra.Node, st props.States) *Rewrite {
				if n.Op() != algebra.OpRdup {
					return nil
				}
				child := n.Children()[0]
				cs, ok := st[child]
				if !ok || !cs.Distinct {
					return nil
				}
				// On a temporal argument rdup additionally renames the time
				// attributes, so dropping it would change the schema.
				if cs.Schema.Temporal() {
					return nil
				}
				return rw(child, here, c0)
			},
		},
		{
			Name: "D2",
			Type: equiv.List,
			Doc:  "rdupT(r) ≡L r, if r does not have duplicates in snapshots",
			Apply: func(n algebra.Node, st props.States) *Rewrite {
				if n.Op() != algebra.OpTRdup {
					return nil
				}
				child := n.Children()[0]
				cs, ok := st[child]
				if !ok || !cs.SnapshotDistinct {
					return nil
				}
				return rw(child, here, c0)
			},
		},
		{
			Name: "D3",
			Type: equiv.Set,
			Doc:  "rdup(r) ≡S r",
			Apply: func(n algebra.Node, st props.States) *Rewrite {
				if n.Op() != algebra.OpRdup {
					return nil
				}
				child := n.Children()[0]
				cs, ok := st[child]
				if !ok || cs.Schema.Temporal() {
					// Schema change (1.T1 renaming) would make the sides
					// incomparable.
					return nil
				}
				return rw(child, here, c0)
			},
		},
		{
			Name: "D4",
			Type: equiv.SnapshotSet,
			Doc:  "rdupT(r) ≡SS r",
			Apply: func(n algebra.Node, st props.States) *Rewrite {
				if n.Op() != algebra.OpTRdup {
					return nil
				}
				child := n.Children()[0]
				return rw(child, here, c0)
			},
		},
		{
			Name:      "D3r",
			Type:      equiv.Set,
			Doc:       "r ≡S rdup(r) (expanding)",
			Expanding: true,
			Apply: func(n algebra.Node, st props.States) *Rewrite {
				s, ok := st[n]
				if !ok || s.Schema.Temporal() {
					return nil
				}
				if n.Op() == algebra.OpRdup {
					return nil // pointless double elimination
				}
				return rw(algebra.NewRdup(n), here)
			},
		},
		{
			Name:      "D4r",
			Type:      equiv.SnapshotSet,
			Doc:       "r ≡SS rdupT(r) (expanding)",
			Expanding: true,
			Apply: func(n algebra.Node, st props.States) *Rewrite {
				s, ok := st[n]
				if !ok || !s.Schema.Temporal() {
					return nil
				}
				if n.Op() == algebra.OpTRdup {
					return nil
				}
				return rw(algebra.NewTRdup(n), here)
			},
		},
		{
			Name: "D5",
			Type: equiv.List,
			Doc:  "rdup(r1 ∪ r2) ≡L rdup(r1) ∪ rdup(r2)",
			Apply: func(n algebra.Node, st props.States) *Rewrite {
				if n.Op() != algebra.OpRdup {
					return nil
				}
				u := n.Children()[0]
				if u.Op() != algebra.OpUnion {
					return nil
				}
				uch := u.Children()
				us, ok := st[u]
				if !ok || us.Schema.Temporal() {
					// rdup over a temporal union renames time attributes;
					// the rewritten inner rdups would rename before the
					// union, changing the match of the two sides' schemas
					// in the same way — still fine — but the inner union
					// would then be ∪ over snapshot relations, which is a
					// different (conventional) operation; keep to the
					// snapshot case for exactness.
					return nil
				}
				repl := algebra.NewUnion(algebra.NewRdup(uch[0]), algebra.NewRdup(uch[1]))
				return rw(repl, here, c0, c00, c01)
			},
		},
		{
			Name: "D5r",
			Type: equiv.List,
			Doc:  "rdup(r1) ∪ rdup(r2) ≡L rdup(r1 ∪ r2)",
			Apply: func(n algebra.Node, st props.States) *Rewrite {
				if n.Op() != algebra.OpUnion {
					return nil
				}
				ch := n.Children()
				if ch[0].Op() != algebra.OpRdup || ch[1].Op() != algebra.OpRdup {
					return nil
				}
				l, r := ch[0].Children()[0], ch[1].Children()[0]
				ls, ok := st[l]
				if !ok || ls.Schema.Temporal() {
					return nil
				}
				repl := algebra.NewRdup(algebra.NewUnion(l, r))
				return rw(repl, here, c0, c1, c00, c10)
			},
		},
		{
			Name: "D6",
			Type: equiv.List,
			Doc:  "rdupT(r1 ∪T r2) ≡L rdupT(r1) ∪T rdupT(r2)",
			Apply: func(n algebra.Node, st props.States) *Rewrite {
				if n.Op() != algebra.OpTRdup {
					return nil
				}
				u := n.Children()[0]
				if u.Op() != algebra.OpTUnion {
					return nil
				}
				uch := u.Children()
				repl := algebra.NewTUnion(algebra.NewTRdup(uch[0]), algebra.NewTRdup(uch[1]))
				return rw(repl, here, c0, c00, c01)
			},
		},
		{
			Name: "D6r",
			Type: equiv.List,
			Doc:  "rdupT(r1) ∪T rdupT(r2) ≡L rdupT(r1 ∪T r2)",
			Apply: func(n algebra.Node, st props.States) *Rewrite {
				if n.Op() != algebra.OpTUnion {
					return nil
				}
				ch := n.Children()
				if ch[0].Op() != algebra.OpTRdup || ch[1].Op() != algebra.OpTRdup {
					return nil
				}
				l, r := ch[0].Children()[0], ch[1].Children()[0]
				repl := algebra.NewTRdup(algebra.NewTUnion(l, r))
				return rw(repl, here, c0, c1, c00, c10)
			},
		},
	}
}

package rules

import (
	"tqp/internal/algebra"
	"tqp/internal/equiv"
	"tqp/internal/props"
)

// TransferRules returns the transfer transformation rules of Section 4.5.
// Pulling an operation out of the DBMS (TS(op(…)) → op(TS(…))) or pushing
// it in preserves only ≡M in general, "because we cannot be sure how the
// DBMS implementation of the operation will sort its result, sort being the
// only exception" — moving a sort across a transfer is ≡L. Moving an
// order-sensitive temporal operation (rdupᵀ, coalᵀ, \ᵀ, ∪ᵀ) across a
// transfer is also typed ≡M, following the paper's blanket Section 4.5
// claim; its soundness leans on the Section 6 assumption that plans contain
// order-sensitive operations only where they preserve multiset equivalence
// (e.g., coalᵀ over snapshot-duplicate-free arguments).
func TransferRules() []Rule {
	var out []Rule
	out = append(out,
		Rule{
			Name: "T0",
			Type: equiv.List,
			Doc:  "TS(TD(r)) ≡L r and TD(TS(r)) ≡L r",
			Apply: func(n algebra.Node, st props.States) *Rewrite {
				op := n.Op()
				if op != algebra.OpTransferS && op != algebra.OpTransferD {
					return nil
				}
				child := n.Children()[0]
				want := algebra.OpTransferD
				if op == algebra.OpTransferD {
					want = algebra.OpTransferS
				}
				if child.Op() != want {
					return nil
				}
				inner := child.Children()[0]
				return rw(inner, here, c0, c00)
			},
		},
		Rule{
			Name:       "T-sort",
			Type:       equiv.List,
			PushesSort: true,
			Doc:        "sortA(TS(r)) ≡L TS(sortA(r)) — sort transfers exactly",
			Apply: func(n algebra.Node, st props.States) *Rewrite {
				srt, ok := n.(*algebra.Sort)
				if !ok {
					return nil
				}
				ts := srt.Children()[0]
				if ts.Op() != algebra.OpTransferS {
					return nil
				}
				inner := ts.Children()[0]
				repl := algebra.NewTransferS(algebra.NewSort(srt.Spec, inner))
				return rw(repl, here, c0, c00)
			},
		},
		Rule{
			Name: "T-sort-r",
			Type: equiv.List,
			Doc:  "TS(sortA(r)) ≡L sortA(TS(r)) — pull a sort into the stratum",
			Apply: func(n algebra.Node, st props.States) *Rewrite {
				if n.Op() != algebra.OpTransferS {
					return nil
				}
				srt, ok := n.Children()[0].(*algebra.Sort)
				if !ok {
					return nil
				}
				inner := srt.Children()[0]
				repl := algebra.NewSort(srt.Spec, algebra.NewTransferS(inner))
				return rw(repl, here, c0, c00)
			},
		},
	)
	// Pull unary operations out of the DBMS: TS(op(r)) ≡ op(TS(r)).
	out = append(out, Rule{
		Name: "T1",
		Type: equiv.Multiset,
		Doc:  "TS(op1(r)) ≡M op1(TS(r)) for order-insensitive unary op1",
		Apply: func(n algebra.Node, st props.States) *Rewrite {
			if n.Op() != algebra.OpTransferS {
				return nil
			}
			inner := n.Children()[0]
			if !transferableUnary(inner.Op()) {
				return nil
			}
			grand := inner.Children()[0]
			repl := inner.WithChildren(algebra.NewTransferS(grand))
			return rw(repl, here, c0, c00)
		},
	})
	out = append(out, Rule{
		Name: "T1r",
		Type: equiv.Multiset,
		Doc:  "op1(TS(r)) ≡M TS(op1(r)) for order-insensitive unary op1",
		Apply: func(n algebra.Node, st props.States) *Rewrite {
			if !transferableUnary(n.Op()) {
				return nil
			}
			ts := n.Children()[0]
			if ts.Op() != algebra.OpTransferS {
				return nil
			}
			grand := ts.Children()[0]
			repl := algebra.NewTransferS(n.WithChildren(grand))
			return rw(repl, here, c0, c00)
		},
	})
	// The order-sensitive temporal unaries (see the package comment on the
	// Section 6 multiset-safety assumption).
	out = append(out, Rule{
		Name: "T2",
		Type: equiv.Multiset,
		Doc:  "TS(opT(r)) ≡M opT(TS(r)) for order-sensitive temporal unary opT",
		Apply: func(n algebra.Node, st props.States) *Rewrite {
			if n.Op() != algebra.OpTransferS {
				return nil
			}
			inner := n.Children()[0]
			if !orderSensitiveUnary(inner.Op()) {
				return nil
			}
			grand := inner.Children()[0]
			repl := inner.WithChildren(algebra.NewTransferS(grand))
			return rw(repl, here, c0, c00)
		},
	})
	out = append(out, Rule{
		Name: "T2r",
		Type: equiv.Multiset,
		Doc:  "opT(TS(r)) ≡M TS(opT(r)) for order-sensitive temporal unary opT",
		Apply: func(n algebra.Node, st props.States) *Rewrite {
			if !orderSensitiveUnary(n.Op()) {
				return nil
			}
			ts := n.Children()[0]
			if ts.Op() != algebra.OpTransferS {
				return nil
			}
			grand := ts.Children()[0]
			repl := algebra.NewTransferS(n.WithChildren(grand))
			return rw(repl, here, c0, c00)
		},
	})
	// Binary operations: TS(op2(r1, r2)) ≡ op2(TS(r1), TS(r2)) and back.
	out = append(out, Rule{
		Name: "T3",
		Type: equiv.Multiset,
		Doc:  "TS(op2(r1,r2)) ≡M op2(TS(r1),TS(r2)) for order-insensitive binary op2",
		Apply: func(n algebra.Node, st props.States) *Rewrite {
			if n.Op() != algebra.OpTransferS {
				return nil
			}
			inner := n.Children()[0]
			if !transferableBinary(inner.Op()) {
				return nil
			}
			ch := inner.Children()
			repl := inner.WithChildren(algebra.NewTransferS(ch[0]), algebra.NewTransferS(ch[1]))
			return rw(repl, here, c0, c00, c01)
		},
	})
	out = append(out, Rule{
		Name: "T3r",
		Type: equiv.Multiset,
		Doc:  "op2(TS(r1),TS(r2)) ≡M TS(op2(r1,r2)) for order-insensitive binary op2",
		Apply: func(n algebra.Node, st props.States) *Rewrite {
			if !transferableBinary(n.Op()) {
				return nil
			}
			ch := n.Children()
			if ch[0].Op() != algebra.OpTransferS || ch[1].Op() != algebra.OpTransferS {
				return nil
			}
			l, r := ch[0].Children()[0], ch[1].Children()[0]
			repl := algebra.NewTransferS(n.WithChildren(l, r))
			return rw(repl, here, c0, c1, c00, c10)
		},
	})
	out = append(out, Rule{
		Name: "T4",
		Type: equiv.Multiset,
		Doc:  "TS(opT2(r1,r2)) ≡M opT2(TS(r1),TS(r2)) for order-sensitive temporal binary opT2",
		Apply: func(n algebra.Node, st props.States) *Rewrite {
			if n.Op() != algebra.OpTransferS {
				return nil
			}
			inner := n.Children()[0]
			if !orderSensitiveBinary(inner.Op()) {
				return nil
			}
			ch := inner.Children()
			repl := inner.WithChildren(algebra.NewTransferS(ch[0]), algebra.NewTransferS(ch[1]))
			return rw(repl, here, c0, c00, c01)
		},
	})
	out = append(out, Rule{
		Name: "T4r",
		Type: equiv.Multiset,
		Doc:  "opT2(TS(r1),TS(r2)) ≡M TS(opT2(r1,r2)) for order-sensitive temporal binary opT2",
		Apply: func(n algebra.Node, st props.States) *Rewrite {
			if !orderSensitiveBinary(n.Op()) {
				return nil
			}
			ch := n.Children()
			if ch[0].Op() != algebra.OpTransferS || ch[1].Op() != algebra.OpTransferS {
				return nil
			}
			l, r := ch[0].Children()[0], ch[1].Children()[0]
			repl := algebra.NewTransferS(n.WithChildren(l, r))
			return rw(repl, here, c0, c1, c00, c10)
		},
	})
	return out
}

// transferableUnary: unary operations whose result is insensitive to input
// order at multiset level, so they may cross a transfer with ≡M.
func transferableUnary(op algebra.Op) bool {
	switch op {
	case algebra.OpSelect, algebra.OpProject, algebra.OpRdup,
		algebra.OpAggregate, algebra.OpTAggregate:
		return true
	default:
		return false
	}
}

// orderSensitiveUnary: temporal unaries whose multiset output depends on
// input order.
func orderSensitiveUnary(op algebra.Op) bool {
	return op == algebra.OpTRdup || op == algebra.OpCoal
}

// transferableBinary: binary operations insensitive to argument order at
// multiset level.
func transferableBinary(op algebra.Op) bool {
	switch op {
	case algebra.OpUnionAll, algebra.OpUnion, algebra.OpProduct,
		algebra.OpDiff, algebra.OpTProduct, algebra.OpJoin, algebra.OpTJoin:
		return true
	default:
		return false
	}
}

// orderSensitiveBinary: temporal binaries whose multiset output depends on
// argument order.
func orderSensitiveBinary(op algebra.Op) bool {
	return op == algebra.OpTDiff || op == algebra.OpTUnion
}

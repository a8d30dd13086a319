package server

import (
	"fmt"

	"tqp/internal/algebra"
	"tqp/internal/expr"
	"tqp/internal/value"
)

// This file is the wire form of pushed-down plan fragments (OpPartial): a
// small JSON tree with one object per algebra node, plus the predicate and
// scalar expression grammar. Operator spellings reuse the packages' String
// renderings ("select", "coalT", "=", "OVERLAPS", "SUM", ...) so the wire
// vocabulary is exactly the algebra's and the dialect's surface syntax;
// a literal travels as its kind plus the dialect's own rendering of the
// value (value.Value.String, read back by value.Parse).

// WirePlan is the payload of an OpPartial request: a plan subtree over the
// server's catalog shard. Op names the node's operator as algebra.Op renders
// it, the fields its operator takes are set, and In holds its children.
type WirePlan struct {
	Op      string      `json:"op"`
	Rel     string      `json:"rel,omitempty"`      // rel: the base relation's name
	Pred    *WirePred   `json:"pred,omitempty"`     // select
	Items   []WireItem  `json:"items,omitempty"`    // project
	Keys    []Order     `json:"keys,omitempty"`     // sort
	GroupBy []string    `json:"group_by,omitempty"` // aggr
	Aggs    []WireAgg   `json:"aggs,omitempty"`     // aggr
	In      []*WirePlan `json:"in,omitempty"`
}

// fragmentOps are the operators a fragment may contain: what core's
// splitter pushes below the gather.
var fragmentOps = []algebra.Op{algebra.OpRel, algebra.OpSelect, algebra.OpProject, algebra.OpSort,
	algebra.OpAggregate, algebra.OpCoal, algebra.OpTRdup}

// WireItem is one output column of a "project" node.
type WireItem struct {
	Expr *WireExpr `json:"expr"`
	As   string    `json:"as"`
}

// WireAgg is one aggregate of an "aggr" node.
type WireAgg struct {
	Func string `json:"func"` // COUNT, COUNT(*), SUM, AVG, MIN, MAX
	Arg  string `json:"arg,omitempty"`
	As   string `json:"as"`
}

// WirePred is a predicate tree node. Node selects the variant: "cmp"
// (Op/LX/RX), "and"/"or" (L/R), "not" (L), "true", and "period"
// (Op + Args = [AStart AEnd BStart BEnd]).
type WirePred struct {
	Node string      `json:"node"`
	Op   string      `json:"op,omitempty"`
	L    *WirePred   `json:"l,omitempty"`
	R    *WirePred   `json:"r,omitempty"`
	LX   *WireExpr   `json:"lx,omitempty"`
	RX   *WireExpr   `json:"rx,omitempty"`
	Args []*WireExpr `json:"args,omitempty"`
}

// WireExpr is a scalar expression tree node. Node selects the variant:
// "col" (Name), "lit" (Kind/Val), "arith" (Op/L/R).
type WireExpr struct {
	Node string    `json:"node"`
	Name string    `json:"name,omitempty"`
	Kind string    `json:"kind,omitempty"`
	Val  string    `json:"val,omitempty"`
	Op   string    `json:"op,omitempty"`
	L    *WireExpr `json:"l,omitempty"`
	R    *WireExpr `json:"r,omitempty"`
}

// EncodePlan renders a plan fragment for the wire.
func EncodePlan(n algebra.Node) (*WirePlan, error) {
	if _, err := spelledAs("fragment operator", n.Op().String(), fragmentOps...); err != nil {
		return nil, err
	}
	w := &WirePlan{Op: n.Op().String()}
	switch v := n.(type) {
	case *algebra.Rel:
		w.Rel = v.Name
	case *algebra.Select:
		p, err := encodePred(v.P)
		if err != nil {
			return nil, err
		}
		w.Pred = p
	case *algebra.Project:
		w.Items = make([]WireItem, len(v.Items))
		for j, it := range v.Items {
			e, err := encodeExpr(it.Expr)
			if err != nil {
				return nil, err
			}
			w.Items[j] = WireItem{Expr: e, As: it.As}
		}
	case *algebra.Sort:
		w.Keys = orderOf(v.Spec)
	case *algebra.Aggregate:
		w.GroupBy = v.GroupBy
		w.Aggs = make([]WireAgg, len(v.Aggs))
		for j, a := range v.Aggs {
			w.Aggs[j] = WireAgg{Func: a.Func.String(), Arg: a.Arg, As: a.As}
		}
	}
	for _, c := range n.Children() {
		in, err := EncodePlan(c)
		if err != nil {
			return nil, err
		}
		w.In = append(w.In, in)
	}
	return w, nil
}

// DecodePlan parses a wire plan back into a plan fragment. A base-relation
// leaf carries only its name: the shard binds it to its slice of the
// relation (see exec.RunFragment).
func DecodePlan(w *WirePlan) (algebra.Node, error) {
	if w == nil {
		return nil, fmt.Errorf("server: partial plan without a node")
	}
	op, err := spelledAs("fragment operator", w.Op, fragmentOps...)
	if err != nil {
		return nil, err
	}
	if len(w.In) != op.Arity() {
		return nil, fmt.Errorf("server: %s node with %d inputs, want %d", w.Op, len(w.In), op.Arity())
	}
	if op == algebra.OpRel {
		if w.Rel == "" {
			return nil, fmt.Errorf("server: partial plan without a relation")
		}
		return algebra.NewRel(w.Rel, nil, algebra.BaseInfo{}), nil
	}
	in, err := DecodePlan(w.In[0])
	if err != nil {
		return nil, err
	}
	switch op {
	case algebra.OpSelect:
		p, err := decodePred(w.Pred)
		if err != nil {
			return nil, err
		}
		return algebra.NewSelect(p, in), nil
	case algebra.OpProject:
		if len(w.Items) == 0 {
			return nil, fmt.Errorf("server: project node without items")
		}
		items := make([]algebra.ProjItem, len(w.Items))
		for j, wi := range w.Items {
			e, err := decodeExpr(wi.Expr)
			if err != nil {
				return nil, err
			}
			items[j] = algebra.ProjItem{Expr: e, As: wi.As}
		}
		return algebra.NewProject(items, in), nil
	case algebra.OpSort:
		if len(w.Keys) == 0 {
			return nil, fmt.Errorf("server: sort node without keys")
		}
		return algebra.NewSort(orderSpecOf(w.Keys), in), nil
	case algebra.OpAggregate:
		aggs := make([]expr.Aggregate, len(w.Aggs))
		for j, wa := range w.Aggs {
			f, err := spelledAs("aggregate function", wa.Func, expr.Count, expr.CountAll, expr.Sum, expr.Avg, expr.Min, expr.Max)
			if err != nil {
				return nil, err
			}
			aggs[j] = expr.Aggregate{Func: f, Arg: wa.Arg, As: wa.As}
		}
		return algebra.NewAggregate(w.GroupBy, aggs, in), nil
	case algebra.OpCoal:
		return algebra.NewCoal(in), nil
	default:
		return algebra.NewTRdup(in), nil
	}
}

func encodePred(p expr.Pred) (*WirePred, error) {
	switch q := p.(type) {
	case expr.TruePred:
		return &WirePred{Node: "true"}, nil
	case expr.Cmp:
		l, err := encodeExpr(q.L)
		if err != nil {
			return nil, err
		}
		r, err := encodeExpr(q.R)
		if err != nil {
			return nil, err
		}
		return &WirePred{Node: "cmp", Op: q.Op.String(), LX: l, RX: r}, nil
	case expr.And:
		l, err := encodePred(q.L)
		if err != nil {
			return nil, err
		}
		r, err := encodePred(q.R)
		if err != nil {
			return nil, err
		}
		return &WirePred{Node: "and", L: l, R: r}, nil
	case expr.Or:
		l, err := encodePred(q.L)
		if err != nil {
			return nil, err
		}
		r, err := encodePred(q.R)
		if err != nil {
			return nil, err
		}
		return &WirePred{Node: "or", L: l, R: r}, nil
	case expr.Not:
		l, err := encodePred(q.P)
		if err != nil {
			return nil, err
		}
		return &WirePred{Node: "not", L: l}, nil
	case expr.PeriodPred:
		args := make([]*WireExpr, 4)
		for i, e := range []expr.Expr{q.AStart, q.AEnd, q.BStart, q.BEnd} {
			w, err := encodeExpr(e)
			if err != nil {
				return nil, err
			}
			args[i] = w
		}
		return &WirePred{Node: "period", Op: q.Op.String(), Args: args}, nil
	default:
		return nil, fmt.Errorf("server: cannot encode predicate %T", p)
	}
}

func decodePred(w *WirePred) (expr.Pred, error) {
	if w == nil {
		return nil, fmt.Errorf("server: select node without a predicate")
	}
	switch w.Node {
	case "true":
		return expr.TruePred{}, nil
	case "cmp":
		op, err := spelledAs("comparison operator", w.Op, expr.Eq, expr.Ne, expr.Lt, expr.Le, expr.Gt, expr.Ge)
		if err != nil {
			return nil, err
		}
		l, err := decodeExpr(w.LX)
		if err != nil {
			return nil, err
		}
		r, err := decodeExpr(w.RX)
		if err != nil {
			return nil, err
		}
		return expr.Compare(op, l, r), nil
	case "and", "or":
		l, err := decodePred(w.L)
		if err != nil {
			return nil, err
		}
		r, err := decodePred(w.R)
		if err != nil {
			return nil, err
		}
		if w.Node == "and" {
			return expr.Conj(l, r), nil
		}
		return expr.Disj(l, r), nil
	case "not":
		l, err := decodePred(w.L)
		if err != nil {
			return nil, err
		}
		return expr.Neg(l), nil
	case "period":
		op, err := spelledAs("period operator", w.Op, expr.POverlaps, expr.PContains, expr.PMeets, expr.PPrecedes)
		if err != nil {
			return nil, err
		}
		if len(w.Args) != 4 {
			return nil, fmt.Errorf("server: period predicate wants 4 operands, got %d", len(w.Args))
		}
		var ops [4]expr.Expr
		for i, a := range w.Args {
			e, err := decodeExpr(a)
			if err != nil {
				return nil, err
			}
			ops[i] = e
		}
		return expr.PeriodPred{Op: op, AStart: ops[0], AEnd: ops[1], BStart: ops[2], BEnd: ops[3]}, nil
	default:
		return nil, fmt.Errorf("server: unknown predicate node %q", w.Node)
	}
}

func encodeExpr(e expr.Expr) (*WireExpr, error) {
	switch x := e.(type) {
	case expr.Col:
		return &WireExpr{Node: "col", Name: x.Name}, nil
	case expr.Lit:
		return &WireExpr{Node: "lit", Kind: x.Val.Kind().String(), Val: x.Val.String()}, nil
	case expr.Arith:
		l, err := encodeExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := encodeExpr(x.R)
		if err != nil {
			return nil, err
		}
		return &WireExpr{Node: "arith", Op: x.Op.String(), L: l, R: r}, nil
	default:
		return nil, fmt.Errorf("server: cannot encode expression %T", e)
	}
}

func decodeExpr(w *WireExpr) (expr.Expr, error) {
	if w == nil {
		return nil, fmt.Errorf("server: missing expression operand")
	}
	switch w.Node {
	case "col":
		return expr.Column(w.Name), nil
	case "lit":
		k, err := value.ParseKind(w.Kind)
		if err != nil {
			return nil, err
		}
		v, err := value.Parse(k, w.Val)
		if err != nil {
			return nil, err
		}
		return expr.Literal(v), nil
	case "arith":
		op, err := spelledAs("arithmetic operator", w.Op, expr.Add, expr.Sub, expr.Mul, expr.Div)
		if err != nil {
			return nil, err
		}
		l, err := decodeExpr(w.L)
		if err != nil {
			return nil, err
		}
		r, err := decodeExpr(w.R)
		if err != nil {
			return nil, err
		}
		return expr.Arith{Op: op, L: l, R: r}, nil
	default:
		return nil, fmt.Errorf("server: unknown expression node %q", w.Node)
	}
}

// spelledAs returns the member of ops whose String is s: the wire spells
// every operator as its package renders it.
func spelledAs[T fmt.Stringer](what, s string, ops ...T) (T, error) {
	for _, op := range ops {
		if op.String() == s {
			return op, nil
		}
	}
	var none T
	return none, fmt.Errorf("server: unknown %s %q", what, s)
}

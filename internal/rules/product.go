package rules

import (
	"tqp/internal/algebra"
	"tqp/internal/expr"
	"tqp/internal/schema"
)

// commuteProduct rewrites r1 × r2 into π(r2 × r1) (and likewise for ×ᵀ),
// where the projection restores the original column order and names. The
// equivalence is ≡M: tuple order changes from left-major over r1 to
// left-major over r2.
func commuteProduct(n algebra.Node, st Lookup) *Rewrite {
	op := n.Op()
	if op != algebra.OpProduct && op != algebra.OpTProduct {
		return nil
	}
	ch := n.Children()
	oldSchema, err := n.Schema()
	if err != nil {
		return nil
	}
	var swapped algebra.Node
	if op == algebra.OpProduct {
		swapped = algebra.NewProduct(ch[1], ch[0])
	} else {
		swapped = algebra.NewTProduct(ch[1], ch[0])
	}
	newSchema, err := swapped.Schema()
	if err != nil {
		return nil
	}
	ls, err := ch[0].Schema()
	if err != nil {
		return nil
	}
	rs, err := ch[1].Schema()
	if err != nil {
		return nil
	}
	n1, n2 := ls.Len(), rs.Len()
	// Position correspondence: old position i (< n1, from r1) sits at
	// position n2+i in the swapped product; old position n1+j (from r2)
	// sits at j; the fresh T1/T2 of ×ᵀ stay at the tail.
	items := make([]algebra.ProjItem, oldSchema.Len())
	for i := 0; i < oldSchema.Len(); i++ {
		var newPos int
		switch {
		case i < n1:
			newPos = n2 + i
		case i < n1+n2:
			newPos = i - n1
		default:
			newPos = i // fresh T1/T2 of ×ᵀ
		}
		items[i] = algebra.ProjItem{
			Expr: expr.Column(newSchema.At(newPos).Name),
			As:   oldSchema.At(i).Name,
		}
	}
	repl := algebra.NewProject(items, swapped)
	return rw(repl, here, c0, c1)
}

// pruneProductColumns implements rule PP3: when a projection over a
// conventional product uses only part of each side's columns, project the
// sides first. This is the classic column-pruning rewrite; it is ≡L because
// projections preserve cardinality and order, and the outer projection is
// re-based onto the pruned product's (possibly re-qualified) names.
func pruneProductColumns(n algebra.Node, st Lookup) *Rewrite {
	proj, ok := n.(*algebra.Project)
	if !ok {
		return nil
	}
	prod := proj.Children()[0]
	if prod.Op() != algebra.OpProduct {
		return nil
	}
	ch := prod.Children()
	ls, err := ch[0].Schema()
	if err != nil {
		return nil
	}
	rs, err := ch[1].Schema()
	if err != nil {
		return nil
	}
	prodSchema, err := prod.Schema()
	if err != nil {
		return nil
	}
	n1 := ls.Len()

	usedLeft := make(map[int]bool)
	usedRight := make(map[int]bool)
	for _, it := range proj.Items {
		for _, a := range expr.AttrsOf(it.Expr) {
			pos := prodSchema.Index(a)
			if pos < 0 {
				return nil
			}
			if pos < n1 {
				usedLeft[pos] = true
			} else {
				usedRight[pos-n1] = true
			}
		}
	}
	// A side's temporal schema must keep both time attributes or neither.
	completeTimes(usedLeft, ls)
	completeTimes(usedRight, rs)
	// Keep at least one column per side so cardinalities survive.
	if len(usedLeft) == 0 {
		usedLeft[0] = true
		completeTimes(usedLeft, ls)
	}
	if len(usedRight) == 0 {
		usedRight[0] = true
		completeTimes(usedRight, rs)
	}
	if len(usedLeft) == ls.Len() && len(usedRight) == rs.Len() {
		return nil // nothing to prune
	}

	leftKeep := keepNames(ls, usedLeft)
	rightKeep := keepNames(rs, usedRight)
	newProd := algebra.NewProduct(
		algebra.NewProjectCols(ch[0], leftKeep...),
		algebra.NewProjectCols(ch[1], rightKeep...))
	newSchema, err := newProd.Schema()
	if err != nil {
		return nil
	}
	// Old product name -> new product name, via (side, source) identity.
	renames := make(map[string]string)
	for oldPos := 0; oldPos < prodSchema.Len(); oldPos++ {
		oldName := prodSchema.At(oldPos).Name
		var newPos = -1
		if oldPos < n1 {
			if !usedLeft[oldPos] {
				continue
			}
			newPos = rankOf(usedLeft, oldPos)
		} else {
			if !usedRight[oldPos-n1] {
				continue
			}
			newPos = len(leftKeep) + rankOf(usedRight, oldPos-n1)
		}
		newName := newSchema.At(newPos).Name
		if newName != oldName {
			renames[oldName] = newName
		}
	}
	items := make([]algebra.ProjItem, len(proj.Items))
	for i, it := range proj.Items {
		e, err := expr.SubstExpr(it.Expr, expr.RenameEnv(renames))
		if err != nil {
			return nil
		}
		items[i] = algebra.ProjItem{Expr: e, As: it.As}
	}
	repl := algebra.NewProject(items, newProd)
	return rw(repl, here, c0, c00, c01)
}

// completeTimes ensures that if either reserved time attribute of a
// temporal schema is kept, both are.
func completeTimes(used map[int]bool, s *schema.Schema) {
	t1, t2 := s.TimeIndices()
	if t1 < 0 {
		return
	}
	if used[t1] || used[t2] {
		used[t1] = true
		used[t2] = true
	}
}

func keepNames(s *schema.Schema, used map[int]bool) []string {
	var out []string
	for i := 0; i < s.Len(); i++ {
		if used[i] {
			out = append(out, s.At(i).Name)
		}
	}
	return out
}

// rankOf counts how many kept positions precede pos.
func rankOf(used map[int]bool, pos int) int {
	rank := 0
	for i := 0; i < pos; i++ {
		if used[i] {
			rank++
		}
	}
	return rank
}

package exec

import (
	"cmp"
	"fmt"

	"tqp/internal/algebra"
	"tqp/internal/column"
	"tqp/internal/eval"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// This file is the shard side of distributed execution: pushed-down plan
// fragments compiled onto the engine, plus the k-way merge the coordinator
// uses to reassemble per-shard results into exactly the list a single-node
// run would produce.
//
// A fragment is a plan subtree over base relations: a chain of σ, π and
// sort nodes above one leaf, or a grouped region whose \ᵀ nodes give it two
// leaves. Each shard runs it over its slices of the relations. A chain's
// rows keep their provenance: their global sequence keys — their positions
// in the unsharded stored order — ride along as one more column, so the
// coordinator can merge deterministically: by sequence key alone for
// unsorted chains, by (sort keys, sequence key) for sorted ones. Any other
// operator (a group operation, say) consumes provenance — its outputs are
// groups, not stored rows — so its fragment runs over the plain slices,
// returns nil keys, and the coordinator merges block-wise on the grouping
// prefix instead.

// seqAttr names the column the sequence keys travel in. It is appended to a
// chain's shard slice and carried by every σ, π and sort above it as data —
// a filter drops keys with their rows, a stable sort permutes them with
// their rows — and projected off the result.
const seqAttr = "@seq"

// RunFragment executes a fragment over one shard's slices of its base
// relations on the sequential engine. src resolves the fragment's leaves to
// the slices, and positions maps a relation's name to its slice rows'
// global sequence keys (no entry means the identity — an unsharded run). It
// returns the result plus the output rows' sequence keys, or nil keys when
// an operator other than σ, π and sort consumed them.
func RunFragment(plan algebra.Node, src eval.Source, positions map[string][]int) (*relation.Relation, []int, error) {
	if base, ok := plan.(*algebra.Rel); ok {
		rel, seqs, err := fragmentLeaf(base, src, positions)
		if err != nil {
			return nil, nil, fmt.Errorf("exec: fragment: %w", err)
		}
		return rel, seqs, nil
	}
	// Each leaf is bound, under a name of its own, to its slice — with the
	// keys as one more plane in a chain — and scanned like any relation.
	keyed := isChain(plan)
	leaves := eval.MapSource{}
	bound, err := rebind(plan, keyed, func(base *algebra.Rel) (algebra.Node, error) {
		rel, seqs, err := fragmentLeaf(base, src, positions)
		if err != nil {
			return nil, err
		}
		if keyed {
			n, w := rel.Len(), rel.Schema().Len()
			sch, err := schema.New(append(rel.Schema().Attributes(), schema.Attr(seqAttr, value.KindInt))...)
			if err != nil {
				return nil, err
			}
			// The keys plane is dense, so a selection view (a FOR PERIOD
			// scan) is compacted to the rows it presents.
			dense := rel.Columns().Compact()
			keys := column.Vec{Kind: value.KindInt, Ints: make([]int64, n)}
			for i, s := range seqs {
				keys.Ints[i] = int64(s)
			}
			order := rel.Order()
			rel = relation.FromColumnar(sch, &column.Batch{Schema: sch, Cols: append(dense.Cols[:w:w], keys), N: n})
			rel.SetOrder(order)
		}
		name := fmt.Sprintf("@frag%d", len(leaves))
		leaves[name] = rel
		return algebra.NewRel(name, rel.Schema(), algebra.BaseInfo{}), nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("exec: fragment: %w", err)
	}
	out, err := New(leaves).Eval(bound)
	if err != nil {
		return nil, nil, fmt.Errorf("exec: fragment: %w", err)
	}
	if !keyed {
		return out, nil, nil
	}
	w := out.Schema().Len() - 1
	outSch, err := schema.New(out.Schema().Attributes()[:w]...)
	if err != nil {
		return nil, nil, fmt.Errorf("exec: fragment: %w", err)
	}
	// The keys come off the result's last plane, and the stripped result
	// is a view of the others: no tuple is built.
	b := out.Columns()
	outSeqs := make([]int, b.Rows())
	for k := range outSeqs {
		outSeqs[k] = int(b.Cols[w].At(b.RowIndex(k)).AsInt())
	}
	stripped := relation.FromColumnar(outSch, &column.Batch{Schema: outSch, Cols: b.Cols[:w:w], N: b.N, Sel: b.Sel})
	stripped.SetOrder(out.Order())
	return stripped, outSeqs, nil
}

// fragmentLeaf resolves a fragment leaf to the shard's slice of its
// relation and the slice rows' sequence keys.
func fragmentLeaf(base *algebra.Rel, src eval.Source, positions map[string][]int) (*relation.Relation, []int, error) {
	rel, err := src.Resolve(base.Name)
	if err != nil {
		return nil, nil, err
	}
	n, seqs := rel.Len(), positions[base.Name]
	if seqs == nil {
		seqs = identityIdx(n)
	} else if len(seqs) != n {
		return nil, nil, fmt.Errorf("%d sequence keys for a %d-row shard slice of %s", len(seqs), n, base.Name)
	}
	return rel, seqs, nil
}

// isChain reports whether n is σ, π and sort nodes over one leaf: the
// fragments whose rows keep their provenance.
func isChain(n algebra.Node) bool {
	for {
		switch n.(type) {
		case *algebra.Select, *algebra.Project, *algebra.Sort:
			n = n.Children()[0]
		default:
			return len(n.Children()) == 0
		}
	}
}

// rebind rebuilds the fragment n over its leaves as bind binds them. In a
// keyed chain every π gains the sequence key column as one more item. Only
// a grouped region's \ᵀ, which merges block-wise like its arguments, may
// take two inputs.
func rebind(n algebra.Node, keyed bool, bind func(*algebra.Rel) (algebra.Node, error)) (algebra.Node, error) {
	ch := n.Children()
	if len(ch) == 0 {
		base, ok := n.(*algebra.Rel)
		if !ok {
			return nil, fmt.Errorf("leaf %s is not a base relation", n.Label())
		}
		return bind(base)
	}
	if len(ch) > 1 && n.Op() != algebra.OpTDiff {
		return nil, fmt.Errorf("%s is not a fragment operator over %d inputs", n.Op(), len(ch))
	}
	in := make([]algebra.Node, len(ch))
	for i, c := range ch {
		var err error
		if in[i], err = rebind(c, keyed, bind); err != nil {
			return nil, err
		}
	}
	if p, ok := n.(*algebra.Project); ok && keyed {
		return algebra.NewProject(append(p.Items[:len(p.Items):len(p.Items)], algebra.ColItem(seqAttr)), in[0]), nil
	}
	return n.WithChildren(in...), nil
}

// TaggedRows is one shard's fragment output: its batch, plus the presented
// rows' sequence keys (Seqs[k] is row k's global stored position), or nil
// for a grouped fragment's output, whose groups carry none.
type TaggedRows struct {
	Batch *column.Batch
	Seqs  []int
}

// MergeParts merges per-shard fragment outputs, each ordered by order, into
// the one list a single node holds — the k-way merge behind every fragment
// kind. Sorted parts merge by (order, sequence key): each shard's list is
// sorted by exactly that compound order (a stable local sort over a
// sequence-ascending slice), and with no order the sequence keys alone
// restore the stored order, which partitioning split disjointly. Grouped
// parts carry no keys: the push-down contract keeps every group on one shard
// and distinct groups differ on order, which is the grouping prefix, so whole
// blocks of prefix-equal rows move intact, ties (which real groups cannot
// produce) going to the lower shard index. The parts' heads meet in the one
// merge heap, the rows are picked as runs, and the runs gather plane-wise; a
// lone run is a view of its part.
func MergeParts(sch *schema.Schema, order relation.OrderSpec, grouped bool, parts []TaggedRows) *column.Batch {
	total := 0
	for _, p := range parts {
		total += p.Batch.Rows()
	}
	kc := compileVecCmp(sch, order)
	sides := make([]keySide, len(parts))
	for k, p := range parts {
		sides[k] = kc.left(p.Batch)
	}
	var space mergeSpace
	at, _, buf := space.slices(len(parts)) // at[k] is part k's head: a presented row of its batch
	m := newMergeHeap(buf, func(a, b int) int {
		pa, pb := parts[a], parts[b]
		if c := kc.compare(sides[a], pa.Batch.RowIndex(at[a]), sides[b], pb.Batch.RowIndex(at[b])); c != 0 || grouped {
			return c
		}
		return cmp.Compare(pa.Seqs[at[a]], pb.Seqs[at[b]])
	})
	for k, p := range parts {
		if p.Batch.Rows() > 0 {
			m.push(k)
		}
	}
	type run struct{ part, lo, hi int }
	var runs []run
	pick := func(k, hi int) {
		if last := len(runs) - 1; last >= 0 && runs[last].part == k && runs[last].hi == at[k] {
			runs[last].hi = hi
		} else {
			runs = append(runs, run{k, at[k], hi})
		}
		at[k] = hi
	}
	for m.len() > 1 {
		k := m.top()
		b := parts[k].Batch
		hi := at[k] + 1
		if grouped {
			head := b.RowIndex(at[k])
			for hi < b.Rows() && kc.compare(sides[k], b.RowIndex(hi), sides[k], head) == 0 {
				hi++
			}
		}
		pick(k, hi)
		m.next(hi < b.Rows())
	}
	if m.len() == 1 {
		k := m.top()
		pick(k, parts[k].Batch.Rows())
	}
	if len(runs) == 1 {
		v := parts[runs[0].part].Batch.RangeView(runs[0].lo, runs[0].hi)
		v.Schema = sch
		return v
	}
	// Not column.Concat over RangeViews: a sorted merge of interleaved
	// shards makes about one run per row, and a view per run is a batch
	// header per row.
	out := column.NewBatch(sch, total)
	for _, r := range runs {
		out.AppendPresented(parts[r.part].Batch, r.lo, r.hi)
	}
	return out
}

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
// A fragment is a plan subtree over one base relation: a chain of unary
// operators above one leaf. Each shard runs it over its slice of the relation
// with the rows' global sequence keys — their positions in the unsharded
// stored order — riding along as one more column through the σ, π and sort
// nodes at the chain's bottom, so the coordinator can merge deterministically:
// by sequence key alone for unsorted chains, by (sort keys, sequence key) for
// sorted ones. Any other operator (a group operation, say) consumes
// provenance — its outputs are groups, not stored rows — so the keys are
// projected away below it, the fragment returns nil keys, and the coordinator
// merges block-wise on the grouping prefix instead.

// seqAttr names the column the sequence keys travel in. It is appended to the
// shard slice, carried by every σ, π and sort above the leaf as data — a
// filter drops keys with their rows, a stable sort permutes them with their
// rows — and projected away below the first other operator and off the
// result.
const seqAttr = "@seq"

// RunFragment executes a fragment over one shard's slice of its base
// relation on the sequential engine. src resolves the fragment's leaf to the
// slice, and positions maps the relation's name to the slice rows' global
// sequence keys (no entry means the identity — an unsharded run). It returns
// the result plus the output rows' sequence keys, or nil keys when an
// operator other than σ, π and sort consumed them.
func RunFragment(plan algebra.Node, src eval.Source, positions map[string][]int) (*relation.Relation, []int, error) {
	leaf := plan
	for len(leaf.Children()) == 1 {
		leaf = leaf.Children()[0]
	}
	base, ok := leaf.(*algebra.Rel)
	if !ok {
		return nil, nil, fmt.Errorf("exec: fragment %s is not a chain of unary operators over one relation", leaf.Label())
	}
	rel, err := src.Resolve(base.Name)
	if err != nil {
		return nil, nil, fmt.Errorf("exec: fragment: %w", err)
	}
	n, seqs := rel.Len(), positions[base.Name]
	if seqs == nil {
		seqs = identityIdx(n)
	} else if len(seqs) != n {
		return nil, nil, fmt.Errorf("exec: %d sequence keys for a %d-row shard slice", len(seqs), n)
	}
	if plan == leaf {
		return rel, seqs, nil
	}
	w := rel.Schema().Len()
	sch, err := schema.New(append(rel.Schema().Attributes(), schema.Attr(seqAttr, value.KindInt))...)
	if err != nil {
		return nil, nil, fmt.Errorf("exec: fragment: %w", err)
	}
	// The leaf is the slice's batch with the keys as one more plane. The
	// keys plane is dense, so a selection view (a FOR PERIOD scan) is
	// compacted to the rows it presents.
	eng := &Engine{}
	dense := rel.Columns().Compact()
	keys := column.Vec{Kind: value.KindInt, Ints: make([]int64, n)}
	for i, s := range seqs {
		keys.Ints[i] = int64(s)
	}
	slice := &column.Batch{Schema: sch, Cols: append(dense.Cols[:w:w], keys), N: n}
	eng.leaf = &source{vec: &rangeBatchIter{b: slice, hi: n}, schema: sch, order: rel.Order()}

	keyed, carried, err := withSeq(plan, algebra.NewRel("@frag", sch, algebra.BaseInfo{}))
	if err != nil {
		return nil, nil, fmt.Errorf("exec: fragment: %w", err)
	}
	out, err := eng.Eval(keyed)
	if err != nil {
		return nil, nil, fmt.Errorf("exec: fragment: %w", err)
	}
	if !carried {
		return out, nil, nil
	}
	w = out.Schema().Len() - 1
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

// withSeq rebuilds the chain n over leaf, the shard slice with its sequence
// key column. σ and sort pass the column through and π gains it as one more
// item; below any other operator it is projected away. carried reports
// whether the column reaches n's output.
func withSeq(n, leaf algebra.Node) (_ algebra.Node, carried bool, err error) {
	ch := n.Children()
	if len(ch) == 0 {
		return leaf, true, nil
	}
	in, carried, err := withSeq(ch[0], leaf)
	if err != nil {
		return nil, false, err
	}
	if !carried {
		return n.WithChildren(in), false, nil
	}
	switch v := n.(type) {
	case *algebra.Select, *algebra.Sort:
		return n.WithChildren(in), true, nil
	case *algebra.Project:
		return algebra.NewProject(append(v.Items[:len(v.Items):len(v.Items)], algebra.ColItem(seqAttr)), in), true, nil
	}
	sch, err := in.Schema()
	if err != nil {
		return nil, false, err
	}
	return n.WithChildren(algebra.NewProjectCols(in, sch.Names()[:sch.Len()-1]...)), false, nil
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

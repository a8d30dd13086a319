package exec

import (
	"fmt"

	"tqp/internal/algebra"
	"tqp/internal/column"
	"tqp/internal/eval"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// This file is the shard side of distributed execution: pushed-down plan
// fragments compiled onto the engine, plus the merge kernels the coordinator
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
	// The leaf is the slice's cached columnar image with the keys as one
	// more plane: repeated fragments over a shard's relation convert it once.
	// The keys plane is dense, so a selection view (a FOR PERIOD scan of a
	// columnar-primary entry) is compacted to the rows it presents.
	eng := &Engine{}
	image := eng.batchOf(rel).Compact()
	keys := column.Vec{Kind: value.KindInt, Ints: make([]int64, n)}
	for i, s := range seqs {
		keys.Ints[i] = int64(s)
	}
	slice := &column.Batch{Schema: sch, Cols: append(image.Cols[:w:w], keys), N: n}
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
	b, _ := out.Columns()
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

// TaggedRows pairs one shard's fragment output with its sequence keys,
// parallel slices (Seqs[i] is Rows[i]'s global stored position).
type TaggedRows struct {
	Rows []relation.Tuple
	Seqs []int
}

// MergeSorted merges per-shard fragment outputs into the global stable sort
// order: by the sort keys, ties broken by sequence key. Each shard's list is
// sorted by exactly that compound order (a stable local sort over a
// sequence-ascending slice), so this is a standard k-way merge. With no
// keys it merges an unsorted chain back into the global stored order:
// partitioning assigns each stored row to exactly one shard, so the
// sequence keys are disjoint.
func MergeSorted(sch *schema.Schema, keys relation.OrderSpec, parts []TaggedRows) []relation.Tuple {
	total := 0
	for _, p := range parts {
		total += len(p.Rows)
	}
	out := make([]relation.Tuple, 0, total)
	at := make([]int, len(parts))
	for len(out) < total {
		best := -1
		for k, p := range parts {
			if at[k] >= len(p.Rows) {
				continue
			}
			if best < 0 {
				best = k
				continue
			}
			c := relation.CompareOn(sch, keys, p.Rows[at[k]], parts[best].Rows[at[best]])
			if c < 0 || (c == 0 && p.Seqs[at[k]] < parts[best].Seqs[at[best]]) {
				best = k
			}
		}
		out = append(out, parts[best].Rows[at[best]])
		at[best]++
	}
	return out
}

// MergeGroups merges per-shard grouped fragment outputs block-wise on the
// grouping prefix; the parts carry no sequence keys. The push-down contract
// guarantees every group lives wholly on one shard and distinct groups
// differ on the prefix, so whole blocks of prefix-equal rows move intact;
// ties across shards cannot occur for real groups, and shard index breaks
// them deterministically anyway.
func MergeGroups(sch *schema.Schema, prefix relation.OrderSpec, parts []TaggedRows) []relation.Tuple {
	total := 0
	for _, p := range parts {
		total += len(p.Rows)
	}
	out := make([]relation.Tuple, 0, total)
	at := make([]int, len(parts))
	for len(out) < total {
		best := -1
		for k, p := range parts {
			if at[k] >= len(p.Rows) {
				continue
			}
			if best < 0 || relation.CompareOn(sch, prefix, p.Rows[at[k]], parts[best].Rows[at[best]]) < 0 {
				best = k
			}
		}
		// Move the whole prefix-equal block from the chosen shard.
		p := parts[best].Rows
		head := p[at[best]]
		for at[best] < len(p) && relation.CompareOn(sch, prefix, p[at[best]], head) == 0 {
			out = append(out, p[at[best]])
			at[best]++
		}
	}
	return out
}

package exec

import (
	"fmt"

	"tqp/internal/algebra"
	"tqp/internal/expr"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// This file is the shard side of distributed execution: pushed-down plan
// fragments compiled onto the engine, plus the merge kernels the coordinator
// uses to reassemble per-shard results into exactly the list a single-node
// run would produce.
//
// A fragment is a chain over one base relation: zero or more selections
// and projections, optionally a sort, optionally one group operation
// (temporal coalescing, temporal duplicate elimination, or a conventional
// aggregate) on top of the sort. Each shard runs the chain over its slice of
// the relation with the rows' global sequence keys — their positions in the
// unsharded stored order — riding along as one more column, so the
// coordinator can merge deterministically: by sequence key alone for unsorted
// chains, by (sort keys, sequence key) for sorted ones. Group operations
// consume provenance (their outputs are groups, not stored rows), so grouped
// fragments return nil sequence keys and are merged block-wise on the
// grouping prefix instead.

// FragmentOp enumerates the steps a pushed-down fragment may contain.
type FragmentOp uint8

const (
	// FragSelect filters rows by a predicate, preserving order and
	// sequence keys.
	FragSelect FragmentOp = iota
	// FragProject maps each row through a projection list (π), preserving
	// sequence keys row for row.
	FragProject
	// FragSort stably sorts the rows on Keys. Stability over the
	// sequence-ascending input makes the local order the restriction of
	// the global stable sort to this shard's rows.
	FragSort
	// FragCoalT coalesces value-equivalent rows with adjacent or
	// overlapping periods (the paper's coal operation). Requires the
	// fragment's groups to be shard-local and contiguous.
	FragCoalT
	// FragRdupT is temporal duplicate elimination under the same
	// contiguity contract as FragCoalT.
	FragRdupT
	// FragAggr is a conventional aggregate (GROUP BY + aggregate list),
	// again over shard-local contiguous groups.
	FragAggr
)

// String names the op for diagnostics and the wire codec.
func (op FragmentOp) String() string {
	switch op {
	case FragSelect:
		return "select"
	case FragProject:
		return "project"
	case FragSort:
		return "sort"
	case FragCoalT:
		return "coalT"
	case FragRdupT:
		return "rdupT"
	case FragAggr:
		return "aggr"
	default:
		return fmt.Sprintf("frag(%d)", uint8(op))
	}
}

// FragmentStep is one step of a fragment chain; which fields matter depends
// on Op (see the FragmentOp docs).
type FragmentStep struct {
	Op      FragmentOp
	Pred    expr.Pred          // FragSelect
	Items   []algebra.ProjItem // FragProject
	Keys    relation.OrderSpec // FragSort
	GroupBy []string           // FragAggr
	Aggs    []expr.Aggregate   // FragAggr
}

// seqAttr names the column the sequence keys travel in. It is appended to the
// shard slice, carried by every σ, π and sort of the chain as data — a filter
// drops keys with their rows, a stable sort permutes them with their rows —
// and projected away below a group tail and off the result.
const seqAttr = "@seq"

// RunFragment executes a fragment chain over one shard's slice of a base
// relation: the chain compiles to a plan over the slice and runs on the
// sequential engine. seqs carries the slice rows' global sequence keys (nil
// means the identity — an unsharded run). It returns the result plus the
// output rows' sequence keys; a grouped fragment (coalT/rdupT/aggr tail)
// returns nil keys because its rows are derived groups, not stored tuples.
func RunFragment(rel *relation.Relation, seqs []int, steps []FragmentStep) (*relation.Relation, []int, error) {
	n := rel.Len()
	if seqs == nil {
		seqs = identityIdx(n)
	} else if len(seqs) != n {
		return nil, nil, fmt.Errorf("exec: %d sequence keys for a %d-row shard slice", len(seqs), n)
	}
	if len(steps) == 0 {
		return rel, seqs, nil
	}
	w := rel.Schema().Len()
	sch, err := schema.New(append(rel.Schema().Attributes(), schema.Attr(seqAttr, value.KindInt))...)
	if err != nil {
		return nil, nil, fmt.Errorf("exec: fragment: %w", err)
	}
	// The leaf is the slice's cached columnar image with the keys as one
	// more plane: repeated fragments over a shard's relation convert it once.
	eng := &Engine{}
	image := eng.batchOf(rel)
	keys := colvec{kind: value.KindInt, ints: make([]int64, n)}
	for i, s := range seqs {
		keys.ints[i] = int64(s)
	}
	slice := &batch{schema: sch, cols: append(image.cols[:w:w], keys), n: n}
	eng.leaf = &source{vec: &rangeBatchIter{b: slice, hi: n}, schema: sch, order: rel.Order()}

	var plan algebra.Node = algebra.NewRel("@frag", sch, algebra.BaseInfo{})
	var tail *FragmentStep
	for si := range steps {
		st := &steps[si]
		switch st.Op {
		case FragSelect:
			if st.Pred == nil {
				return nil, nil, fmt.Errorf("exec: fragment step %d: select without a predicate", si)
			}
			plan = algebra.NewSelect(st.Pred, plan)
		case FragProject:
			if len(st.Items) == 0 {
				return nil, nil, fmt.Errorf("exec: fragment step %d: projection without items", si)
			}
			plan = algebra.NewProject(append(st.Items[:len(st.Items):len(st.Items)], algebra.ColItem(seqAttr)), plan)
		case FragSort:
			if len(st.Keys) == 0 {
				return nil, nil, fmt.Errorf("exec: fragment step %d: sort without keys", si)
			}
			plan = algebra.NewSort(st.Keys, plan)
		case FragCoalT, FragRdupT, FragAggr:
			if si != len(steps)-1 {
				return nil, nil, fmt.Errorf("exec: fragment step %d: %s must be the final step", si, st.Op)
			}
			tail = st
		default:
			return nil, nil, fmt.Errorf("exec: fragment step %d: unknown op %d", si, uint8(st.Op))
		}
	}
	cur, err := plan.Schema()
	if err != nil {
		return nil, nil, fmt.Errorf("exec: fragment: %w", err)
	}
	w = cur.Len() - 1
	keyless := algebra.NewProjectCols(plan, cur.Names()[:w]...)
	if tail != nil {
		var node algebra.Node
		switch tail.Op {
		case FragCoalT:
			node = algebra.NewCoal(keyless)
		case FragRdupT:
			node = algebra.NewTRdup(keyless)
		default:
			node = algebra.NewAggregate(tail.GroupBy, tail.Aggs, keyless)
		}
		out, err := eng.Eval(node)
		if err != nil {
			return nil, nil, fmt.Errorf("exec: fragment %s: %w", tail.Op, err)
		}
		return out, nil, nil
	}
	outSch, err := keyless.Schema()
	if err != nil {
		return nil, nil, fmt.Errorf("exec: fragment: %w", err)
	}
	keyed, err := eng.Eval(plan)
	if err != nil {
		return nil, nil, fmt.Errorf("exec: fragment: %w", err)
	}
	outRows, outSeqs := keyed.Tuples(), make([]int, keyed.Len())
	for i, t := range outRows {
		outRows[i], outSeqs[i] = t[:w:w], int(t[w].AsInt())
	}
	out := relation.FromTuplesTrusted(outSch, outRows)
	out.SetOrder(keyed.Order())
	return out, outSeqs, nil
}

// TaggedRows pairs one shard's fragment output with its sequence keys,
// parallel slices (Seqs[i] is Rows[i]'s global stored position).
type TaggedRows struct {
	Rows []relation.Tuple
	Seqs []int
}

// MergeBySeq merges per-shard fragment outputs back into the global stored
// order: ascending sequence key. Partitioning assigns each stored row to
// exactly one shard, so the keys are disjoint and the merge is a plain
// k-way minimum.
func MergeBySeq(parts []TaggedRows) []relation.Tuple {
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
			if best < 0 || p.Seqs[at[k]] < parts[best].Seqs[at[best]] {
				best = k
			}
		}
		out = append(out, parts[best].Rows[at[best]])
		at[best]++
	}
	return out
}

// MergeSorted merges per-shard sorted fragment outputs into the global
// stable sort order: by the sort keys, ties broken by sequence key. Each
// shard's list is sorted by exactly that compound order (a stable local
// sort over a sequence-ascending slice), so this is a standard k-way merge.
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
// grouping prefix. The push-down contract guarantees every group lives
// wholly on one shard and distinct groups differ on the prefix, so whole
// blocks of prefix-equal rows move intact; ties across shards cannot occur
// for real groups, and shard index breaks them deterministically anyway.
func MergeGroups(sch *schema.Schema, prefix relation.OrderSpec, parts [][]relation.Tuple) []relation.Tuple {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]relation.Tuple, 0, total)
	at := make([]int, len(parts))
	for len(out) < total {
		best := -1
		for k, p := range parts {
			if at[k] >= len(p) {
				continue
			}
			if best < 0 || relation.CompareOn(sch, prefix, p[at[k]], parts[best][at[best]]) < 0 {
				best = k
			}
		}
		// Move the whole prefix-equal block from the chosen shard.
		p := parts[best]
		head := p[at[best]]
		for at[best] < len(p) && relation.CompareOn(sch, prefix, p[at[best]], head) == 0 {
			out = append(out, p[at[best]])
			at[best]++
		}
	}
	return out
}

package exec

import (
	"tqp/internal/column"
	"tqp/internal/relation"
	"tqp/internal/schema"
)

// vecBatchRows is the row capacity the columnar operators target per batch:
// large enough to amortize per-batch bookkeeping, small enough that a
// pipeline's working batches stay cache-resident. Scans are the exception —
// a base relation converts once and travels as a single batch, so its
// columns are never re-sliced or copied.
const vecBatchRows = 1024

// vecIterator is the one pull interface of the engine. nextBatch returns
// (nil, nil) when the stream is exhausted; emitted batches are
// immutable and may be views sharing column storage with earlier batches.
type vecIterator interface {
	nextBatch() (*column.Batch, error)
	close() error
}

// vecSource wraps a batch iterator as a pipeline stage.
func vecSource(v vecIterator, sch *schema.Schema) *source {
	return &source{vec: v, schema: sch}
}

// vecDrainOne drains a columnar stream into a single compacted batch (the
// build/materialization points: hash-join build sides, value-group and
// grouping inputs). A stream of exactly one unselected batch is returned
// as-is, copy-free.
func vecDrainOne(v vecIterator, sch *schema.Schema) (*column.Batch, error) {
	b, err := vecDrainOneView(v, sch)
	if err != nil {
		return nil, err
	}
	return b.Compact(), nil
}

// vecDrainOneView drains v into a single batch like vecDrainOne but keeps
// a lone selected batch as its selection view instead of compacting it —
// for consumers that split or scan presented rows and never index the
// physical planes directly.
func vecDrainOneView(v vecIterator, sch *schema.Schema) (*column.Batch, error) {
	var parts []*column.Batch
	total := 0
	for {
		b, err := v.nextBatch()
		if err != nil {
			v.close()
			return nil, err
		}
		if b == nil {
			break
		}
		parts = append(parts, b)
		total += b.Rows()
	}
	if err := v.close(); err != nil {
		return nil, err
	}
	return column.Concat(sch, parts, total), nil
}

// drainVec drains the root stage into the result: a relation over one batch
// (a lone batch as it is, selection included), whose tuples exist only if a
// reader asks for them.
func drainVec(s *source) (*relation.Relation, error) {
	b, err := vecDrainOneView(s.vec, s.schema)
	if err != nil {
		return nil, err
	}
	if b.Schema != s.schema {
		// The lone batch may be an input's (a ⊔ operand's, a transfer's):
		// relabel it so a later scan of the result reads the result's schema.
		nb := *b
		nb.Schema = s.schema
		b = &nb
	}
	out := relation.FromColumnar(s.schema, b)
	out.SetOrder(s.order)
	return out, nil
}

// vecGroups assigns dense group ids to batch rows equal on a key-column
// set, hashing straight off the column storage. Ids whose keys share a
// canonical row hash chain through next from the newest, heads[hash]−1, and
// every candidate is confirmed with value equality, so distinct keys never
// share a group. Ids are allocated in first-occurrence order — the
// iteration order the reference evaluator's string-keyed maps expose — and
// representatives are (batch, row) references, so no tuple is ever
// materialized. The referenced batches stay alive as long as the table.
type vecGroups struct {
	idx    []int
	heads  map[uint64]int // hash → newest id + 1
	next   []int          // by id: the previous id with its hash, or -1
	repB   []*column.Batch
	repRow []int
}

func newVecGroups(idx []int, sizeHint int) *vecGroups {
	if len(idx) == 0 {
		sizeHint = 1 // the empty key has one group, whatever the row count
	}
	return &vecGroups{idx: idx, heads: make(map[uint64]int, sizeHint),
		next: make([]int, 0, sizeHint), repB: make([]*column.Batch, 0, sizeHint), repRow: make([]int, 0, sizeHint)}
}

// groupOf returns row i's group id, allocating a fresh one (fresh=true) for
// the first row with a given key.
func (g *vecGroups) groupOf(b *column.Batch, i int) (id int, fresh bool) {
	h := rowHash(b, i, g.idx)
	if id = g.find(h, b, i, g.idx); id >= 0 {
		return id, false
	}
	id = len(g.repB)
	g.repB, g.repRow = append(g.repB, b), append(g.repRow, i)
	g.next = append(g.next, g.heads[h]-1)
	g.heads[h] = id + 1
	return id, true
}

// lookup finds the group whose key equals row i restricted to probeIdx —
// position k of probeIdx pairs with position k of the table's key — or -1.
func (g *vecGroups) lookup(b *column.Batch, i int, probeIdx []int) int {
	return g.find(rowHash(b, i, probeIdx), b, i, probeIdx)
}

// find walks hash h's chain for lookup's match.
func (g *vecGroups) find(h uint64, b *column.Batch, i int, probeIdx []int) int {
chain:
	for gid := g.heads[h] - 1; gid >= 0; gid = g.next[gid] {
		for k, pc := range probeIdx {
			if !b.Cols[pc].EqualAt(i, &g.repB[gid].Cols[g.idx[k]], g.repRow[gid]) {
				continue chain
			}
		}
		return gid
	}
	return -1
}

// size returns the number of distinct groups seen.
func (g *vecGroups) size() int { return len(g.repB) }

// keysEqual reports that row i of a and row j of b (physical indices, one
// schema) are equal on the idx columns.
func keysEqual(a *column.Batch, i int, b *column.Batch, j int, idx []int) bool {
	for _, c := range idx {
		if !a.Cols[c].EqualAt(i, &b.Cols[c], j) {
			return false
		}
	}
	return true
}

// csrGroups is a grouping of a partition's rows in compressed sparse row
// form: group g's members — positions into p.rows, in list order — are
// pos[off[g]:off[g+1]].
type csrGroups struct {
	off, pos []int
}

// count returns the number of groups.
func (c csrGroups) count() int { return max(len(c.off)-1, 0) }

// members returns group g's positions.
func (c csrGroups) members(g int) []int { return c.pos[c.off[g]:c.off[g+1]] }

// csrOf groups positions 0..len(of)-1 by their group ids of[k] in
// 0..n-1: count, prefix-sum to each group's end, fill backwards.
func csrOf(of []int, n int) csrGroups {
	off := make([]int, n+1)
	for _, g := range of {
		off[g]++
	}
	for g := 1; g < n; g++ {
		off[g] += off[g-1]
	}
	off[n] = len(of)
	pos := make([]int, len(of))
	for k := len(of) - 1; k >= 0; k-- {
		off[of[k]]--
		pos[off[of[k]]] = k
	}
	return csrGroups{off: off, pos: pos}
}

// groupRows partitions a partition's rows by equality on idx, preserving
// first-occurrence group order and row order within each group.
// contiguous=true (equal rows proved adjacent by the input's OrderSpec —
// which any order-preserving subset holding whole groups inherits) runs
// hash-free; an empty idx is one global group.
func groupRows(p part, idx []int, contiguous bool) csrGroups {
	n := len(p.rows)
	if n == 0 {
		return csrGroups{}
	}
	if len(idx) == 0 || contiguous {
		off := append(make([]int, 0, n+1), 0)
		for k := 1; k < n && len(idx) > 0; k++ {
			if !keysEqual(p.b, p.rows[k], p.b, p.rows[k-1], idx) {
				off = append(off, k)
			}
		}
		return csrGroups{off: append(off, n), pos: identityIdx(n)}
	}
	groups := newVecGroups(idx, n)
	of := make([]int, n)
	for k, i := range p.rows {
		of[k], _ = groups.groupOf(p.b, i)
	}
	return csrOf(of, groups.size())
}

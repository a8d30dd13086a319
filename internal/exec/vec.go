package exec

import (
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// vecBatchRows is the row capacity the columnar operators target per batch:
// large enough to amortize per-batch bookkeeping, small enough that a
// pipeline's working batches stay cache-resident. Scans are the exception —
// a base relation converts once and travels as a single batch, so its
// columns are never re-sliced or copied.
const vecBatchRows = 1024

// colvec is one column of a batch: per-kind typed storage over value.Value
// kinds. A column created for a schema attribute stores its payloads
// unboxed — int, bool and time share the int64 plane exactly as
// value.Value does internally, floats and strings get their own — and
// reconstructs a value.Value only at materialization boundaries. A column
// that ever receives a value of a foreign kind demotes itself to the boxed
// fallback (vals), so kind-mixed columns remain correct, merely slower;
// schema-checked pipelines never take that path.
type colvec struct {
	kind   value.Kind // homogeneous storage kind; KindInvalid = boxed fallback
	ints   []int64    // int, bool (0/1), time (chronon)
	floats []float64
	strs   []string
	vals   []value.Value // boxed fallback, used iff kind == KindInvalid
}

// newColvec returns an empty column for kind k with room for capHint values.
func newColvec(k value.Kind, capHint int) colvec {
	c := colvec{kind: k}
	switch k {
	case value.KindInt, value.KindBool, value.KindTime:
		c.ints = make([]int64, 0, capHint)
	case value.KindFloat:
		c.floats = make([]float64, 0, capHint)
	case value.KindString:
		c.strs = make([]string, 0, capHint)
	default:
		c.kind = value.KindInvalid
		c.vals = make([]value.Value, 0, capHint)
	}
	return c
}

// length returns the number of values stored.
func (c *colvec) length() int {
	switch c.kind {
	case value.KindInt, value.KindBool, value.KindTime:
		return len(c.ints)
	case value.KindFloat:
		return len(c.floats)
	case value.KindString:
		return len(c.strs)
	default:
		return len(c.vals)
	}
}

// at reconstructs the value at index i. The result is a plain struct — no
// allocation — and Equal/Compare/HashInto on it agree bit-for-bit with the
// tuple the column was filled from.
func (c *colvec) at(i int) value.Value {
	switch c.kind {
	case value.KindInt:
		return value.Int(c.ints[i])
	case value.KindBool:
		return value.Bool(c.ints[i] != 0)
	case value.KindTime:
		return value.Time(period.Chronon(c.ints[i]))
	case value.KindFloat:
		return value.Float(c.floats[i])
	case value.KindString:
		return value.String_(c.strs[i])
	default:
		return c.vals[i]
	}
}

// demote converts the column to boxed storage; the escape hatch for
// kind-mixed appends.
func (c *colvec) demote() {
	n := c.length()
	vals := make([]value.Value, n, n+1)
	for i := 0; i < n; i++ {
		vals[i] = c.at(i)
	}
	c.kind = value.KindInvalid
	c.ints, c.floats, c.strs = nil, nil, nil
	c.vals = vals
}

// append adds v, demoting to boxed storage when v's kind does not match.
func (c *colvec) append(v value.Value) {
	if c.kind != v.Kind() && c.kind != value.KindInvalid {
		c.demote()
	}
	switch c.kind {
	case value.KindInt:
		c.ints = append(c.ints, v.AsInt())
	case value.KindBool:
		if v.AsBool() {
			c.ints = append(c.ints, 1)
		} else {
			c.ints = append(c.ints, 0)
		}
	case value.KindTime:
		c.ints = append(c.ints, int64(v.AsTime()))
	case value.KindFloat:
		c.floats = append(c.floats, v.AsFloat())
	case value.KindString:
		c.strs = append(c.strs, v.AsString())
	default:
		c.vals = append(c.vals, v)
	}
}

// appendFrom copies o's value at i, staying on the typed plane when the
// storage kinds match.
func (c *colvec) appendFrom(o *colvec, i int) {
	if c.kind == o.kind {
		switch c.kind {
		case value.KindInt, value.KindBool, value.KindTime:
			c.ints = append(c.ints, o.ints[i])
			return
		case value.KindFloat:
			c.floats = append(c.floats, o.floats[i])
			return
		case value.KindString:
			c.strs = append(c.strs, o.strs[i])
			return
		}
	}
	c.append(o.at(i))
}

// appendRange bulk-copies o's values [lo,hi), staying typed when possible.
func (c *colvec) appendRange(o *colvec, lo, hi int) {
	if c.kind == o.kind {
		switch c.kind {
		case value.KindInt, value.KindBool, value.KindTime:
			c.ints = append(c.ints, o.ints[lo:hi]...)
			return
		case value.KindFloat:
			c.floats = append(c.floats, o.floats[lo:hi]...)
			return
		case value.KindString:
			c.strs = append(c.strs, o.strs[lo:hi]...)
			return
		}
	}
	for i := lo; i < hi; i++ {
		c.append(o.at(i))
	}
}

// hashInto folds the value at i into a running hash, producing exactly the
// bits value.Value.HashInto produces for the equal tuple value. Typed
// planes feed the value package's typed kernels directly, so hashing a
// group key or a join key never boxes a Value.
func (c *colvec) hashInto(i int, h uint64) uint64 {
	switch c.kind {
	case value.KindInt:
		return value.HashIntInto(h, c.ints[i])
	case value.KindBool:
		return value.HashBoolInto(h, c.ints[i] != 0)
	case value.KindTime:
		return value.HashTimeInto(h, c.ints[i])
	case value.KindFloat:
		return value.HashFloatInto(h, c.floats[i])
	case value.KindString:
		return value.HashStringInto(h, c.strs[i])
	default:
		return c.vals[i].HashInto(h)
	}
}

// equalAt reports value equality between c[i] and o[j] under the canonical
// Compare order, with typed fast paths for the exact-match kinds. Floats go
// through the generic path so NaN and cross-kind numeric equality keep the
// canonical semantics.
func (c *colvec) equalAt(i int, o *colvec, j int) bool {
	if c.kind == o.kind {
		switch c.kind {
		case value.KindInt, value.KindBool, value.KindTime:
			return c.ints[i] == o.ints[j]
		case value.KindString:
			return c.strs[i] == o.strs[j]
		}
	}
	return c.at(i).Equal(o.at(j))
}

// batch is a columnar slice of a tuple stream: one colvec per schema
// attribute, n physical rows, and an optional selection vector. With sel
// non-nil the batch presents rows sel[0..len(sel)) in that order; filters
// emit selections instead of compacting, and the consumer compacts (or
// gathers) only when it materializes. Batches flowing between operators are
// immutable — a filter wraps its input in a new batch struct sharing the
// columns, never mutating them.
type batch struct {
	schema *schema.Schema
	cols   []colvec
	n      int   // physical rows in the columns
	sel    []int // selected physical row indices, nil = all rows
}

// newBatch returns an empty batch for s with per-column room for capHint.
func newBatch(s *schema.Schema, capHint int) *batch {
	b := &batch{schema: s, cols: make([]colvec, s.Len())}
	for i := range b.cols {
		b.cols[i] = newColvec(s.At(i).Kind, capHint)
	}
	return b
}

// rows returns the presented row count (the selection's, when one is set).
func (b *batch) rows() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// rowIndex maps a presented position to its physical row index.
func (b *batch) rowIndex(k int) int {
	if b.sel != nil {
		return b.sel[k]
	}
	return k
}

// A batch is a relation.Columnar: a drained result is a columnar-primary
// relation over its root batch, and a scan of such a relation — a bound TS
// leaf — reads that batch back without a conversion.

// Rows implements relation.Columnar.
func (b *batch) Rows() int { return b.rows() }

// Cell implements relation.Columnar: column c of presented row i.
func (b *batch) Cell(i, c int) value.Value { return b.cols[c].at(b.rowIndex(i)) }

// Gather implements relation.Columnar: a selection view presenting rows
// idx of b, which keeps idx when b has no selection of its own.
func (b *batch) Gather(idx []int) relation.Columnar {
	if b.sel == nil {
		return b.withSel(idx)
	}
	sel := make([]int, len(idx))
	for k, i := range idx {
		sel[k] = b.sel[i]
	}
	return b.withSel(sel)
}

// AppendTuples implements relation.Columnar: it materializes the presented
// rows as tuples appended to ts. The tuples are cut from one backing array
// (as a decoded spill block's are), so a batch costs one allocation, not one
// per row.
func (b *batch) AppendTuples(ts []relation.Tuple) []relation.Tuple {
	n, arity := b.rows(), len(b.cols)
	vals := make([]value.Value, n*arity)
	for k := 0; k < n; k++ {
		t := relation.Tuple(vals[k*arity : (k+1)*arity : (k+1)*arity])
		b.fillTuple(t, b.rowIndex(k))
		ts = append(ts, t)
	}
	return ts
}

// fillTuple writes the physical row i into a caller-owned scratch tuple.
func (b *batch) fillTuple(t relation.Tuple, i int) {
	for c := range b.cols {
		t[c] = b.cols[c].at(i)
	}
}

// appendRow appends src's physical row i as a new physical row.
func (b *batch) appendRow(src *batch, i int) {
	for c := range b.cols {
		b.cols[c].appendFrom(&src.cols[c], i)
	}
	b.n++
}

// periodAt reads the period at time positions t1/t2 of physical row i.
func (b *batch) periodAt(t1, t2, i int) period.Period {
	c1, c2 := &b.cols[t1], &b.cols[t2]
	if c1.kind == value.KindTime && c2.kind == value.KindTime {
		return period.Period{Start: period.Chronon(c1.ints[i]), End: period.Chronon(c2.ints[i])}
	}
	return period.Period{Start: c1.at(i).AsTime(), End: c2.at(i).AsTime()}
}

// compact resolves the selection vector into dense columns. A batch with no
// selection is returned as-is.
func (b *batch) compact() *batch {
	if b.sel == nil {
		return b
	}
	out := newBatch(b.schema, len(b.sel))
	for c := range out.cols {
		for _, i := range b.sel {
			out.cols[c].appendFrom(&b.cols[c], i)
		}
	}
	out.n = len(b.sel)
	return out
}

// withSel returns a view of b presenting exactly the physical rows in sel,
// sharing b's columns.
func (b *batch) withSel(sel []int) *batch {
	nb := *b
	nb.sel = sel
	return &nb
}

// slice returns a capacity-capped view of the values [lo,hi): shared
// storage, zero copies, and any append on the view reallocates instead of
// clobbering the parent plane.
func (c *colvec) slice(lo, hi int) colvec {
	s := colvec{kind: c.kind}
	switch c.kind {
	case value.KindInt, value.KindBool, value.KindTime:
		s.ints = c.ints[lo:hi:hi]
	case value.KindFloat:
		s.floats = c.floats[lo:hi:hi]
	case value.KindString:
		s.strs = c.strs[lo:hi:hi]
	default:
		s.vals = c.vals[lo:hi:hi]
	}
	return s
}

// rangeView returns a zero-copy view of b's presented rows [lo,hi). An
// unselected batch subslices its column planes — an offset view over the
// shared storage with no selection indirection on later scans; a selected
// batch subslices the selection instead.
func (b *batch) rangeView(lo, hi int) *batch {
	if b.sel != nil {
		return b.withSel(b.sel[lo:hi])
	}
	nb := &batch{schema: b.schema, cols: make([]colvec, len(b.cols)), n: hi - lo}
	for c := range b.cols {
		nb.cols[c] = b.cols[c].slice(lo, hi)
	}
	return nb
}

// batchOfTuples converts a tuple list to one batch.
func batchOfTuples(s *schema.Schema, ts []relation.Tuple) *batch {
	b := newBatch(s, len(ts))
	for c := range b.cols {
		col := &b.cols[c]
		for _, t := range ts {
			col.append(t[c])
		}
	}
	b.n = len(ts)
	return b
}

// vecIterator is the one pull interface of the engine. nextBatch returns
// (nil, nil) when the stream is exhausted; emitted batches are
// immutable and may be views sharing column storage with earlier batches.
type vecIterator interface {
	nextBatch() (*batch, error)
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
func vecDrainOne(v vecIterator, sch *schema.Schema) (*batch, error) {
	b, err := vecDrainOneView(v, sch)
	if err != nil {
		return nil, err
	}
	return b.compact(), nil
}

// vecDrainOneView drains v into a single batch like vecDrainOne but keeps
// a lone selected batch as its selection view instead of compacting it —
// for consumers that split or scan presented rows and never index the
// physical planes directly.
func vecDrainOneView(v vecIterator, sch *schema.Schema) (*batch, error) {
	var parts []*batch
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
		total += b.rows()
	}
	if err := v.close(); err != nil {
		return nil, err
	}
	return concatBatches(sch, parts, total), nil
}

// concatBatches presents a batch list as one batch of total rows: a lone
// batch as it is (selection view included), otherwise a dense copy in
// presented order.
func concatBatches(sch *schema.Schema, parts []*batch, total int) *batch {
	if len(parts) == 1 {
		return parts[0]
	}
	out := newBatch(sch, total)
	for c := range out.cols {
		col := &out.cols[c]
		for _, p := range parts {
			src := &p.cols[c]
			if p.sel == nil {
				col.appendRange(src, 0, p.n)
				continue
			}
			for _, i := range p.sel {
				col.appendFrom(src, i)
			}
		}
	}
	out.n = total
	return out
}

// drainVec drains the root stage into the result: a columnar-primary
// relation over one batch (a lone batch as it is, selection included), whose
// tuples exist only if a reader asks for them.
func drainVec(s *source) (*relation.Relation, error) {
	b, err := vecDrainOneView(s.vec, s.schema)
	if err != nil {
		return nil, err
	}
	if b.schema != s.schema {
		// The lone batch may be an input's (a ⊔ operand's, a transfer's):
		// relabel it so a later scan of the result reads the result's schema.
		nb := *b
		nb.schema = s.schema
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
	repB   []*batch
	repRow []int
}

func newVecGroups(idx []int, sizeHint int) *vecGroups {
	if len(idx) == 0 {
		sizeHint = 1 // the empty key has one group, whatever the row count
	}
	return &vecGroups{idx: idx, heads: make(map[uint64]int, sizeHint),
		next: make([]int, 0, sizeHint), repB: make([]*batch, 0, sizeHint), repRow: make([]int, 0, sizeHint)}
}

// groupOf returns row i's group id, allocating a fresh one (fresh=true) for
// the first row with a given key.
func (g *vecGroups) groupOf(b *batch, i int) (id int, fresh bool) {
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
func (g *vecGroups) lookup(b *batch, i int, probeIdx []int) int {
	return g.find(rowHash(b, i, probeIdx), b, i, probeIdx)
}

// find walks hash h's chain for lookup's match.
func (g *vecGroups) find(h uint64, b *batch, i int, probeIdx []int) int {
chain:
	for gid := g.heads[h] - 1; gid >= 0; gid = g.next[gid] {
		for k, pc := range probeIdx {
			if !b.cols[pc].equalAt(i, &g.repB[gid].cols[g.idx[k]], g.repRow[gid]) {
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
func keysEqual(a *batch, i int, b *batch, j int, idx []int) bool {
	for _, c := range idx {
		if !a.cols[c].equalAt(i, &b.cols[c], j) {
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

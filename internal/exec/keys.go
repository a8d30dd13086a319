// The key kernels: the group table over the canonical key hash
// (column.HashRows) and the order comparators every keyed operator runs
// on, plus the scratch a partition body works in. Each kernel decides a key
// column's kind once — per column for a hash vector, at compile and bind
// time for a comparator — and then loops over the typed plane, so no row
// pays a kind switch; a boxed (demoted) column and floats take the
// canonical value path.
package exec

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"tqp/internal/column"
	"tqp/internal/expr"
	"tqp/internal/physical"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// identityIdx returns [0, 1, ..., n).
func identityIdx(n int) []int { return seqRows(nil, 0, n) }

// seqRows fills buf with lo, lo+1, …, hi-1: the physical rows of a dense
// range, for the kernels that take a row list.
func seqRows(buf []int, lo, hi int) []int {
	buf = resize(buf, hi-lo)
	for k := range buf {
		buf[k] = lo + k
	}
	return buf
}

// resize returns s with length n, reusing its storage when it has room.
// The contents are unspecified.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// groupTable assigns dense group ids to rows equal on a key-column set, in
// first-occurrence order — the iteration order the reference evaluator's
// string-keyed maps expose. It is one open-addressing table of int32 slots
// (0 = empty, else a group id + 1), probed linearly from a position mixed
// out of the row's canonical hash. Each group's hash is stored, so the
// table grows by doubling from a small start without rehashing a key, and a
// candidate is confirmed with value equality only where the stored hash
// matches: distinct keys never share an id, and keys Equal across kinds
// (Int(1), Float(1.0)) hash alike and meet. Representatives are (batch
// slot, row) pairs into the batches the table has seen, so no tuple is
// built; those batches stay alive as long as the table holds them.
type groupTable struct {
	idx   []int
	slots []int32
	shift uint // 64 − log2(len(slots)): the probe start takes the top bits
	hash  []uint64
	rep   []groupRep
	bs    []*column.Batch
	hv    []uint64 // the hash vector of the rows being added
}

// groupRep is a group's representative: row of the batch in slot.
type groupRep struct{ slot, row int32 }

// minGroupSlots is the table's starting size; it doubles past half full. A
// table with no slots yet is empty and grows on its first new key.
const minGroupSlots = 16

// reset empties the table for the key columns idx, keeping its buffers and
// dropping every batch it referenced.
func (g *groupTable) reset(idx []int) {
	g.idx = idx
	g.slots = g.slots[:0]
	g.hash, g.rep = g.hash[:0], g.rep[:0]
	clear(g.bs)
	g.bs = g.bs[:0]
}

// size returns the number of distinct groups seen.
func (g *groupTable) size() int { return len(g.hash) }

// repOf returns group id's representative row.
func (g *groupTable) repOf(id int) (*column.Batch, int) {
	r := g.rep[id]
	return g.bs[r.slot], int(r.row)
}

// start returns the probe start of hash h: Fibonacci hashing, so every bit
// of h decides the top bits the table indexes by.
func (g *groupTable) start(h uint64) int { return int((h * 0x9e3779b97f4a7c15) >> g.shift) }

// grow doubles the slots and re-places every group from its stored hash.
func (g *groupTable) grow() {
	n := max(2*len(g.slots), minGroupSlots)
	g.slots = resize(g.slots, n)
	clear(g.slots)
	g.shift = uint(64 - bits.TrailingZeros(uint(n)))
	mask := n - 1
	for id, h := range g.hash {
		s := g.start(h)
		for g.slots[s] != 0 {
			s = (s + 1) & mask
		}
		g.slots[s] = int32(id + 1)
	}
}

// add sets ids[k] to the group of b's physical row rows[k], opening a group
// for a key not seen before.
func (g *groupTable) add(b *column.Batch, rows []int, ids []int32) {
	g.hv = resize(g.hv, len(rows))
	column.HashRows(b, rows, g.idx, g.hv)
	g.addHashed(b, rows, g.hv, ids)
}

// addHashed is add with the rows' key hashes given: hs[k] is row rows[k]'s.
func (g *groupTable) addHashed(b *column.Batch, rows []int, hs []uint64, ids []int32) {
	slot := int32(-1)
	for k, i := range rows {
		if 2*(len(g.hash)+1) > len(g.slots) {
			g.grow()
		}
		h, mask := hs[k], len(g.slots)-1
		for s := g.start(h); ; s = (s + 1) & mask {
			v := g.slots[s]
			if v == 0 {
				if slot < 0 {
					slot = g.slotOf(b)
				}
				ids[k] = int32(len(g.hash))
				g.slots[s] = ids[k] + 1
				g.hash = append(g.hash, h)
				g.rep = append(g.rep, groupRep{slot: slot, row: int32(i)})
				break
			}
			if g.hash[v-1] == h && g.equal(b, i, g.idx, v-1) {
				ids[k] = v - 1
				break
			}
		}
	}
}

// slotOf returns b's batch slot, the last one when b is the last batch seen.
func (g *groupTable) slotOf(b *column.Batch) int32 {
	if n := len(g.bs); n > 0 && g.bs[n-1] == b {
		return int32(n - 1)
	}
	g.bs = append(g.bs, b)
	return int32(len(g.bs) - 1)
}

// lookup sets ids[k] to the group whose key equals b's physical row rows[k]
// restricted to probeIdx — position j of probeIdx pairs with position j of
// the table's key — or to -1. hs is the caller's hash scratch, at least
// len(rows) long: lookup only reads the table, so probes may share it.
func (g *groupTable) lookup(b *column.Batch, rows, probeIdx []int, hs []uint64, ids []int32) {
	if len(g.slots) == 0 {
		for k := range rows {
			ids[k] = -1
		}
		return
	}
	column.HashRows(b, rows, probeIdx, hs)
	mask := len(g.slots) - 1
	for k, i := range rows {
		h := hs[k]
		ids[k] = -1
		for s := g.start(h); g.slots[s] != 0; s = (s + 1) & mask {
			if id := g.slots[s] - 1; g.hash[id] == h && g.equal(b, i, probeIdx, id) {
				ids[k] = id
				break
			}
		}
	}
}

// equal confirms that b's physical row i, on probeIdx, equals group id's
// representative on the table's key.
func (g *groupTable) equal(b *column.Batch, i int, probeIdx []int, id int32) bool {
	rb, ri := g.repOf(int(id))
	for k, pc := range probeIdx {
		if !b.Cols[pc].EqualAt(i, &rb.Cols[g.idx[k]], ri) {
			return false
		}
	}
	return true
}

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
	off, pos []int32
}

// count returns the number of groups.
func (c csrGroups) count() int { return max(len(c.off)-1, 0) }

// members returns group g's positions.
func (c csrGroups) members(g int) []int32 { return c.pos[c.off[g]:c.off[g+1]] }

// fill groups positions 0..len(of)-1 by their group ids of[k] in 0..n-1
// over c's buffers: count, prefix-sum to each group's end, fill backwards.
func (c *csrGroups) fill(of []int32, n int) {
	off := resize(c.off, n+1)
	clear(off)
	for _, g := range of {
		off[g]++
	}
	for g := 1; g < n; g++ {
		off[g] += off[g-1]
	}
	off[n] = int32(len(of))
	pos := resize(c.pos, len(of))
	for k := len(of) - 1; k >= 0; k-- {
		off[of[k]]--
		pos[off[of[k]]] = int32(k)
	}
	c.off, c.pos = off, pos
}

// scratch is what one partition body call owns and nothing else touches:
// the group table, its id vector, the two sides' groupings and the
// temporal sweep. A body takes one from scratchPool on entry and puts it
// back on exit, so partitions and statements reuse the buffers instead of
// allocating them per call. Nothing a body emits may point into it.
type scratch struct {
	groups groupTable
	of     []int32
	csr    [2]csrGroups
	sweep  sweep
	spans  []vspan // coalᵀ's group buffer
	budget []int   // \ and ∪: per group, the multiplicity left to cancel

	firsts []int // runGroups: the first row of each run of the left

	// The row lists and sequence keys of up to two partitions a route
	// presents (present), read by the bodies and the gather.
	rows, seqs [2][]int

	// A grouping body's input row for eval.FoldAggregates, which takes a
	// tuple, and 𝒢ᵀ's per-interval accumulators — the body's own aggregate
	// list, so they are dropped, not kept, on release.
	row  relation.Tuple
	accs [][]*expr.Accumulator
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch takes a body call's scratch from the pool.
func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// release returns the scratch to the pool, dropping its batch references.
func (sc *scratch) release() {
	sc.groups.reset(nil)
	sc.sweep.ps[0], sc.sweep.ps[1] = sc.sweep.ps[0][:0], sc.sweep.ps[1][:0] // 𝒢ᵀ loads one side only
	clear(sc.row)
	clear(sc.accs)
	sc.accs = sc.accs[:0]
	scratchPool.Put(sc)
}

// whole presents every row of b (none for nil) as partition k.
func (sc *scratch) whole(k int, b *column.Batch) part {
	if b == nil {
		return part{}
	}
	return sc.present(k, b, 0, b.Rows())
}

// present presents b's presented rows [lo, hi) as partition k (0 or 1)
// over b's planes, nothing copied: the rows are b's selection or the dense
// range, filled into the scratch. A selection out of physical order gets
// sequence keys that are the rows' presented positions, so what a body
// emits stays under non-decreasing keys.
func (sc *scratch) present(k int, b *column.Batch, lo, hi int) part {
	if b.Sel == nil {
		sc.rows[k] = seqRows(sc.rows[k], lo, hi)
		return part{b: b, rows: sc.rows[k]}
	}
	p := part{b: b, rows: b.Sel[lo:hi]}
	if !slices.IsSorted(p.rows) {
		seqs := resize(sc.seqs[k], b.N)
		for x, i := range p.rows {
			seqs[i] = lo + x
		}
		sc.seqs[k], p.seqs = seqs, seqs
	}
	return p
}

// ids returns the id vector resized to n.
func (sc *scratch) ids(n int) []int32 {
	sc.of = resize(sc.of, n)
	return sc.of
}

// groupRows partitions a partition's rows by equality on idx, preserving
// first-occurrence group order and row order within each group, into the
// scratch's side-0 grouping. contiguous=true (equal rows proved adjacent by
// the input's OrderSpec — which any order-preserving subset holding whole
// groups inherits) runs hash-free; an empty idx is one global group.
func (sc *scratch) groupRows(p part, idx []int, contiguous bool) csrGroups {
	c := &sc.csr[0]
	n := len(p.rows)
	if n == 0 {
		c.off, c.pos = c.off[:0], c.pos[:0]
		return *c
	}
	if len(idx) == 0 || contiguous {
		off := append(c.off[:0], 0)
		for k := 1; k < n && len(idx) > 0; k++ {
			if !keysEqual(p.b, p.rows[k], p.b, p.rows[k-1], idx) {
				off = append(off, int32(k))
			}
		}
		c.off = append(off, int32(n))
		c.pos = resize(c.pos, n)
		for k := range c.pos {
			c.pos[k] = int32(k)
		}
		return *c
	}
	sc.groups.reset(idx)
	of := sc.ids(n)
	sc.groups.add(p.b, p.rows, of)
	c.fill(of, sc.groups.size())
	return *c
}

// pairGroups groups one partition pair's rows into a shared
// value-equivalence id space: group g's members are l.members(g) and
// r.members(g), and rOf[k] is right position k's group. Ids follow first
// occurrence, the left's first: the groups holding left rows in left order,
// then the right-only groups in right order. An empty rp groups by
// groupRows, hash-free when contiguous; a contiguous left (equal rows
// adjacent, proved by its delivered order) groups by runGroups.
func (sc *scratch) pairGroups(lp, rp part, vidx []int, contiguous bool) (l, r csrGroups, rOf []int32) {
	if len(rp.rows) == 0 {
		l = sc.groupRows(lp, vidx, contiguous)
		c := &sc.csr[1]
		c.off = resize(c.off, l.count()+1)
		clear(c.off)
		return l, *c, nil
	}
	if contiguous {
		return sc.runGroups(lp, rp, vidx)
	}
	sc.groups.reset(vidx)
	of := sc.ids(len(lp.rows) + len(rp.rows))
	lOf, rOf := of[:len(lp.rows)], of[len(lp.rows):]
	sc.groups.add(lp.b, lp.rows, lOf)
	sc.groups.add(rp.b, rp.rows, rOf)
	sc.csr[0].fill(lOf, sc.groups.size())
	sc.csr[1].fill(rOf, sc.groups.size())
	return sc.csr[0], sc.csr[1], rOf
}

// runGroups is pairGroups over a contiguous left, in the same id space:
// the left is cut into runs without hashing, the group table takes one key
// per run — run g's first row opens group g, the runs' keys being distinct
// — and then the right's rows, which join their run's group or open the
// right-only groups behind the runs, in right order.
func (sc *scratch) runGroups(lp, rp part, vidx []int) (l, r csrGroups, rOf []int32) {
	l = sc.groupRows(lp, vidx, true)
	runs := l.count()
	firsts := resize(sc.firsts, runs)
	for g := range firsts {
		firsts[g] = lp.rows[l.off[g]]
	}
	sc.firsts = firsts
	sc.groups.reset(vidx)
	of := sc.ids(runs + len(rp.rows))
	rOf = of[runs:]
	sc.groups.add(lp.b, firsts, of[:runs])
	sc.groups.add(rp.b, rp.rows, rOf)
	// The right-only groups hold no left row: empty ranges past the runs.
	c := &sc.csr[0]
	if len(c.off) == 0 {
		c.off = append(c.off, 0)
	}
	for range sc.groups.size() - runs {
		c.off = append(c.off, int32(len(lp.rows)))
	}
	sc.csr[1].fill(rOf, sc.groups.size())
	return *c, sc.csr[1], rOf
}

// vecCmp is an order spec compiled for a pair of schemas: per key its left
// and right columns and the comparison its kind and direction pick. The
// comparison runs on key planes bound once per batch (keySide), with the
// sign contract of relation.CompareOn.
type vecCmp struct {
	keys []cmpKey
}

type cmpKey struct {
	lc, rc int
	kind   value.Kind // the plane a typed op reads; KindInvalid for the generic ops
	op     cmpOp
}

// cmpOp is one key's compiled comparison. The typed ops compare the int64
// or string planes — exact for same-kind values, whose canonical Compare is
// the payload order; the generic ops take value.Compare, always for floats
// (NaN, cross-kind numeric order) and for a key whose two schema kinds
// differ.
type cmpOp uint8

const (
	opIntAsc cmpOp = iota
	opIntDesc
	opStrAsc
	opStrDesc
	opAsc
	opDesc
)

// keyPlane is one key column of a bound batch: its typed plane when it
// stores the kind the key was compiled for, else only the column.
type keyPlane struct {
	typed bool
	ints  []int64
	strs  []string
	col   *column.Vec
}

// keySide is a batch's key planes, bound once for many comparisons.
type keySide []keyPlane

// compileVecCmp compiles an order spec against one schema — CompareOn
// restricted to the spec, on column planes: the join comparator with both
// sides on s.
func compileVecCmp(s *schema.Schema, spec relation.OrderSpec) *vecCmp {
	var keys physical.JoinKeys
	for _, k := range spec {
		c := s.Index(k.Attr)
		keys.L, keys.R, keys.Dirs = append(keys.L, c), append(keys.R, c), append(keys.Dirs, k.Dir)
	}
	return compileVecJoinCmp(s, s, keys)
}

// compileVecJoinCmp compiles a merge join's aligned key sequence: left
// column L[k] against right column R[k] under Dirs[k], the first unequal
// key deciding — negative when the left row sorts first.
func compileVecJoinCmp(ls, rs *schema.Schema, keys physical.JoinKeys) *vecCmp {
	c := &vecCmp{keys: make([]cmpKey, len(keys.L))}
	for i := range keys.L {
		k, op := ls.At(keys.L[i]).Kind, opAsc
		switch {
		case rs.At(keys.R[i]).Kind != k:
			k = value.KindInvalid
		case k == value.KindInt || k == value.KindBool || k == value.KindTime:
			op = opIntAsc
		case k == value.KindString:
			op = opStrAsc
		default:
			k = value.KindInvalid
		}
		if keys.Dirs[i] == relation.Desc {
			op++
		}
		c.keys[i] = cmpKey{lc: keys.L[i], rc: keys.R[i], kind: k, op: op}
	}
	return c
}

// left binds b's left key columns; right its right ones (the same for a
// one-schema comparator).
func (c *vecCmp) left(b *column.Batch) keySide  { return c.bind(b, false) }
func (c *vecCmp) right(b *column.Batch) keySide { return c.bind(b, true) }

func (c *vecCmp) bind(b *column.Batch, right bool) keySide {
	s := make(keySide, len(c.keys))
	for k, key := range c.keys {
		col := &b.Cols[key.lc]
		if right {
			col = &b.Cols[key.rc]
		}
		s[k] = keyPlane{typed: col.Kind == key.kind, ints: col.Ints, strs: col.Strs, col: col}
	}
	return s
}

// compare orders row ai of side a against row bi of side b.
func (c *vecCmp) compare(a keySide, ai int, b keySide, bi int) int {
	for k := range c.keys {
		pa, pb := &a[k], &b[k]
		var r int
		switch op := c.keys[k].op; {
		case op <= opIntDesc && pa.typed && pb.typed:
			r = cmp.Compare(pa.ints[ai], pb.ints[bi])
		case op <= opStrDesc && pa.typed && pb.typed:
			r = strings.Compare(pa.strs[ai], pb.strs[bi])
		default:
			r = pa.col.At(ai).Compare(pb.col.At(bi))
		}
		if c.keys[k].op&1 == 1 { // the Desc ops are the odd ones
			r = -r
		}
		if r != 0 {
			return r
		}
	}
	return 0
}

// sortRows sorts the physical row indices rows — ascending when the sort
// starts — by (key, row index): the keys are then unique, so the unstable
// pdqsort yields exactly the stable order at O(n log n). The key planes
// bind once; a single typed key sorts straight against its plane.
func sortRows(b *column.Batch, rows []int, c *vecCmp) {
	s := c.left(b)
	if len(c.keys) == 1 && s[0].typed {
		switch ints, strs := s[0].ints, s[0].strs; c.keys[0].op {
		case opIntAsc:
			slices.SortFunc(rows, func(x, y int) int {
				if r := cmp.Compare(ints[x], ints[y]); r != 0 {
					return r
				}
				return x - y
			})
			return
		case opIntDesc:
			slices.SortFunc(rows, func(x, y int) int {
				if r := cmp.Compare(ints[y], ints[x]); r != 0 {
					return r
				}
				return x - y
			})
			return
		case opStrAsc:
			slices.SortFunc(rows, func(x, y int) int {
				if r := strings.Compare(strs[x], strs[y]); r != 0 {
					return r
				}
				return x - y
			})
			return
		case opStrDesc:
			slices.SortFunc(rows, func(x, y int) int {
				if r := strings.Compare(strs[y], strs[x]); r != 0 {
					return r
				}
				return x - y
			})
			return
		}
	}
	slices.SortFunc(rows, func(x, y int) int {
		if r := c.compare(s, x, s, y); r != 0 {
			return r
		}
		return x - y
	})
}

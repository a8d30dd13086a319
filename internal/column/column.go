// Package column is the one physical form of a relation's list between
// disk, engine and wire: a Batch of typed column planes (Vec) plus an
// optional selection vector. The execution engine's operators consume and
// produce batches, a relation is one, and
// the spill block codec encodes a batch's presented rows straight from the
// planes and decodes back into them — for spill partitions, store segments
// and the server's rows frames alike.
//
// The package is a leaf: it knows values, schemas and periods, and nothing
// about tuples, operators or codecs.
package column

import (
	"slices"

	"tqp/internal/period"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// Vec is one column of a batch: per-kind typed storage over value.Value
// kinds. A column created for a schema attribute stores its payloads
// unboxed — int, bool and time share the int64 plane exactly as
// value.Value does internally, floats and strings get their own — and
// reconstructs a value.Value only at materialization boundaries. A column
// that ever receives a value of a foreign kind demotes itself to the boxed
// fallback (Vals), so kind-mixed columns remain correct, merely slower;
// schema-checked pipelines never take that path.
type Vec struct {
	Kind   value.Kind // homogeneous storage kind; KindInvalid = boxed fallback
	Ints   []int64    // int, bool (0/1), time (chronon)
	Floats []float64
	Strs   []string
	Vals   []value.Value // boxed fallback, used iff Kind == KindInvalid
}

// NewVec returns an empty column for kind k with room for capHint values.
func NewVec(k value.Kind, capHint int) Vec {
	c := Vec{Kind: k}
	switch k {
	case value.KindInt, value.KindBool, value.KindTime:
		c.Ints = make([]int64, 0, capHint)
	case value.KindFloat:
		c.Floats = make([]float64, 0, capHint)
	case value.KindString:
		c.Strs = make([]string, 0, capHint)
	default:
		c.Kind = value.KindInvalid
		c.Vals = make([]value.Value, 0, capHint)
	}
	return c
}

// Len returns the number of values stored.
func (c *Vec) Len() int {
	switch c.Kind {
	case value.KindInt, value.KindBool, value.KindTime:
		return len(c.Ints)
	case value.KindFloat:
		return len(c.Floats)
	case value.KindString:
		return len(c.Strs)
	default:
		return len(c.Vals)
	}
}

// At reconstructs the value at index i. The result is a plain struct — no
// allocation — and Equal/Compare/HashInto on it agree bit-for-bit with the
// tuple the column was filled from.
func (c *Vec) At(i int) value.Value {
	switch c.Kind {
	case value.KindInt:
		return value.Int(c.Ints[i])
	case value.KindBool:
		return value.Bool(c.Ints[i] != 0)
	case value.KindTime:
		return value.Time(period.Chronon(c.Ints[i]))
	case value.KindFloat:
		return value.Float(c.Floats[i])
	case value.KindString:
		return value.String_(c.Strs[i])
	default:
		return c.Vals[i]
	}
}

// demote converts the column to boxed storage; the escape hatch for
// kind-mixed appends.
func (c *Vec) demote() {
	n := c.Len()
	vals := make([]value.Value, n, n+1)
	for i := 0; i < n; i++ {
		vals[i] = c.At(i)
	}
	c.Kind = value.KindInvalid
	c.Ints, c.Floats, c.Strs = nil, nil, nil
	c.Vals = vals
}

// Append adds v, demoting to boxed storage when v's kind does not match.
func (c *Vec) Append(v value.Value) {
	if c.Kind != v.Kind() && c.Kind != value.KindInvalid {
		c.demote()
	}
	switch c.Kind {
	case value.KindInt:
		c.Ints = append(c.Ints, v.AsInt())
	case value.KindBool:
		if v.AsBool() {
			c.Ints = append(c.Ints, 1)
		} else {
			c.Ints = append(c.Ints, 0)
		}
	case value.KindTime:
		c.Ints = append(c.Ints, int64(v.AsTime()))
	case value.KindFloat:
		c.Floats = append(c.Floats, v.AsFloat())
	case value.KindString:
		c.Strs = append(c.Strs, v.AsString())
	default:
		c.Vals = append(c.Vals, v)
	}
}

// AppendFrom copies o's value at i, staying on the typed plane when the
// storage kinds match.
func (c *Vec) AppendFrom(o *Vec, i int) {
	if c.Kind == o.Kind {
		switch c.Kind {
		case value.KindInt, value.KindBool, value.KindTime:
			c.Ints = append(c.Ints, o.Ints[i])
			return
		case value.KindFloat:
			c.Floats = append(c.Floats, o.Floats[i])
			return
		case value.KindString:
			c.Strs = append(c.Strs, o.Strs[i])
			return
		}
	}
	c.Append(o.At(i))
}

// AppendIndexed copies o's values at the indices idx in order: a gather
// over the typed plane when the storage kinds match.
func (c *Vec) AppendIndexed(o *Vec, idx []int) {
	if c.Kind == o.Kind {
		switch c.Kind {
		case value.KindInt, value.KindBool, value.KindTime:
			dst := slices.Grow(c.Ints, len(idx))
			for _, i := range idx {
				dst = append(dst, o.Ints[i])
			}
			c.Ints = dst
			return
		case value.KindFloat:
			dst := slices.Grow(c.Floats, len(idx))
			for _, i := range idx {
				dst = append(dst, o.Floats[i])
			}
			c.Floats = dst
			return
		case value.KindString:
			dst := slices.Grow(c.Strs, len(idx))
			for _, i := range idx {
				dst = append(dst, o.Strs[i])
			}
			c.Strs = dst
			return
		}
	}
	for _, i := range idx {
		c.Append(o.At(i))
	}
}

// AppendRange bulk-copies o's values [lo,hi), staying typed when possible.
func (c *Vec) AppendRange(o *Vec, lo, hi int) {
	if c.Kind == o.Kind {
		switch c.Kind {
		case value.KindInt, value.KindBool, value.KindTime:
			c.Ints = append(c.Ints, o.Ints[lo:hi]...)
			return
		case value.KindFloat:
			c.Floats = append(c.Floats, o.Floats[lo:hi]...)
			return
		case value.KindString:
			c.Strs = append(c.Strs, o.Strs[lo:hi]...)
			return
		}
	}
	for i := lo; i < hi; i++ {
		c.Append(o.At(i))
	}
}

// HashInto folds the value at i into a running hash, producing exactly the
// bits value.Value.HashInto produces for the equal tuple value. Typed
// planes feed the value package's typed kernels directly, so hashing a
// group key or a join key never boxes a Value.
func (c *Vec) HashInto(i int, h uint64) uint64 {
	switch c.Kind {
	case value.KindInt:
		return value.HashIntInto(h, c.Ints[i])
	case value.KindBool:
		return value.HashBoolInto(h, c.Ints[i] != 0)
	case value.KindTime:
		return value.HashTimeInto(h, c.Ints[i])
	case value.KindFloat:
		return value.HashFloatInto(h, c.Floats[i])
	case value.KindString:
		return value.HashStringInto(h, c.Strs[i])
	default:
		return c.Vals[i].HashInto(h)
	}
}

// HashRows writes into out[k] the canonical hash of the idx columns of b's
// physical row rows[k], bit-identical to relation.Tuple.HashOn — the one
// key hash, which places a row in its spill bucket, its W-way hash
// partition and its shard, so it may never drift from the tuple hash.
// Column at a time: each key column's kind is decided once and its plane
// folds into every row's running hash.
func HashRows(b *Batch, rows, idx []int, out []uint64) {
	if len(rows) == 0 {
		return // an empty partition may have no batch
	}
	out = out[:len(rows)]
	seed := value.HashSeed()
	for k := range out {
		out[k] = seed
	}
	for _, c := range idx {
		col := &b.Cols[c]
		switch col.Kind {
		case value.KindInt:
			plane := col.Ints
			for k, i := range rows {
				out[k] = value.HashIntInto(out[k], plane[i])
			}
		case value.KindBool:
			plane := col.Ints
			for k, i := range rows {
				out[k] = value.HashBoolInto(out[k], plane[i] != 0)
			}
		case value.KindTime:
			plane := col.Ints
			for k, i := range rows {
				out[k] = value.HashTimeInto(out[k], plane[i])
			}
		case value.KindFloat:
			plane := col.Floats
			for k, i := range rows {
				out[k] = value.HashFloatInto(out[k], plane[i])
			}
		case value.KindString:
			plane := col.Strs
			for k, i := range rows {
				out[k] = value.HashStringInto(out[k], plane[i])
			}
		default:
			plane := col.Vals
			for k, i := range rows {
				out[k] = plane[i].HashInto(out[k])
			}
		}
	}
}

// EqualAt reports value equality between c[i] and o[j] under the canonical
// Compare order, with typed fast paths for the exact-match kinds. Floats go
// through the generic path so NaN and cross-kind numeric equality keep the
// canonical semantics.
func (c *Vec) EqualAt(i int, o *Vec, j int) bool {
	if c.Kind == o.Kind {
		switch c.Kind {
		case value.KindInt, value.KindBool, value.KindTime:
			return c.Ints[i] == o.Ints[j]
		case value.KindString:
			return c.Strs[i] == o.Strs[j]
		}
	}
	return c.At(i).Equal(o.At(j))
}

// Slice returns a capacity-capped view of the values [lo,hi): shared
// storage, zero copies, and any append on the view reallocates instead of
// clobbering the parent plane.
func (c *Vec) Slice(lo, hi int) Vec {
	s := Vec{Kind: c.Kind}
	switch c.Kind {
	case value.KindInt, value.KindBool, value.KindTime:
		s.Ints = c.Ints[lo:hi:hi]
	case value.KindFloat:
		s.Floats = c.Floats[lo:hi:hi]
	case value.KindString:
		s.Strs = c.Strs[lo:hi:hi]
	default:
		s.Vals = c.Vals[lo:hi:hi]
	}
	return s
}

// Batch is a columnar slice of a list: one Vec per schema attribute, N
// physical rows, and an optional selection vector. With Sel non-nil the
// batch presents rows Sel[0..len(Sel)) in that order; filters emit
// selections instead of compacting, and the consumer compacts (or gathers)
// only when it materializes. Batches handed between owners are immutable —
// a filter wraps its input in a new Batch sharing the columns, never
// mutating them.
type Batch struct {
	Schema *schema.Schema
	Cols   []Vec
	N      int   // physical rows in the columns
	Sel    []int // selected physical row indices, nil = all rows
}

// NewBatch returns an empty batch for s with per-column room for capHint.
func NewBatch(s *schema.Schema, capHint int) *Batch {
	b := &Batch{Schema: s, Cols: make([]Vec, s.Len())}
	for i := range b.Cols {
		b.Cols[i] = NewVec(s.At(i).Kind, capHint)
	}
	return b
}

// Rows returns the presented row count (the selection's, when one is set).
func (b *Batch) Rows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// RowIndex maps a presented position to its physical row index.
func (b *Batch) RowIndex(k int) int {
	if b.Sel != nil {
		return b.Sel[k]
	}
	return k
}

// Presented returns b's presented rows as physical indices: its
// selection, or the dense range filled into *buf.
func (b *Batch) Presented(buf *[]int) []int {
	if b.Sel != nil {
		return b.Sel
	}
	rows := slices.Grow((*buf)[:0], b.N)[:b.N]
	for i := range rows {
		rows[i] = i
	}
	*buf = rows
	return rows
}

// FillRow writes the physical row i into a caller-owned scratch row.
func (b *Batch) FillRow(t []value.Value, i int) {
	for c := range b.Cols {
		t[c] = b.Cols[c].At(i)
	}
}

// Reset empties a batch for reuse, keeping its planes' capacity and
// dropping any selection. Only the batch's owner may reset it: its views
// share the planes.
func (b *Batch) Reset() {
	for c := range b.Cols {
		col := &b.Cols[c]
		col.Ints, col.Floats, col.Strs, col.Vals = col.Ints[:0], col.Floats[:0], col.Strs[:0], col.Vals[:0]
	}
	b.N, b.Sel = 0, nil
}

// PeriodAt reads the period at time positions t1/t2 of physical row i.
func (b *Batch) PeriodAt(t1, t2, i int) period.Period {
	c1, c2 := &b.Cols[t1], &b.Cols[t2]
	if c1.Kind == value.KindTime && c2.Kind == value.KindTime {
		return period.Period{Start: period.Chronon(c1.Ints[i]), End: period.Chronon(c2.Ints[i])}
	}
	return period.Period{Start: c1.At(i).AsTime(), End: c2.At(i).AsTime()}
}

// Compact resolves the selection vector into dense columns. A batch with no
// selection, or nil, is returned as-is.
func (b *Batch) Compact() *Batch {
	if b == nil || b.Sel == nil {
		return b
	}
	out := NewBatch(b.Schema, len(b.Sel))
	out.AppendPresented(b, 0, len(b.Sel))
	return out
}

// WithSel returns a view of b presenting exactly the physical rows in sel,
// sharing b's columns.
func (b *Batch) WithSel(sel []int) *Batch {
	nb := *b
	nb.Sel = sel
	return &nb
}

// Select returns a view presenting b's presented rows idx[0], idx[1], …,
// sharing b's columns; it keeps a non-nil idx when b has no selection of its
// own. An empty idx presents no row.
func (b *Batch) Select(idx []int) *Batch {
	sel := idx
	if b.Sel != nil || idx == nil {
		sel = make([]int, len(idx))
		for k, i := range idx {
			sel[k] = b.RowIndex(i)
		}
	}
	return b.WithSel(sel)
}

// RangeView returns a zero-copy view of b's presented rows [lo,hi). An
// unselected batch subslices its column planes — an offset view over the
// shared storage with no selection indirection on later scans; a selected
// batch subslices the selection instead.
func (b *Batch) RangeView(lo, hi int) *Batch {
	if b.Sel != nil {
		return b.WithSel(b.Sel[lo:hi])
	}
	nb := &Batch{Schema: b.Schema, Cols: make([]Vec, len(b.Cols)), N: hi - lo}
	for c := range b.Cols {
		nb.Cols[c] = b.Cols[c].Slice(lo, hi)
	}
	return nb
}

// Concat presents a batch list as one batch of total rows: a lone batch as
// it is (selection view included), otherwise a dense copy in presented
// order.
func Concat(sch *schema.Schema, parts []*Batch, total int) *Batch {
	if len(parts) == 1 {
		return parts[0]
	}
	out := NewBatch(sch, total)
	for _, p := range parts {
		out.AppendPresented(p, 0, p.Rows())
	}
	return out
}

// AppendPresented appends src's presented rows [lo, hi) as physical rows of
// the dense batch b: a plane-wise bulk copy when src has no selection.
func (b *Batch) AppendPresented(src *Batch, lo, hi int) {
	for c := range b.Cols {
		col, from := &b.Cols[c], &src.Cols[c]
		if src.Sel == nil {
			col.AppendRange(from, lo, hi)
			continue
		}
		col.AppendIndexed(from, src.Sel[lo:hi])
	}
	b.N += hi - lo
}

// DropFront removes the first k physical rows of a dense batch, moving the
// rest to the front of the planes and keeping their capacity. Only the
// batch's owner may call it: its views share the planes.
func (b *Batch) DropFront(k int) {
	for c := range b.Cols {
		col := &b.Cols[c]
		switch col.Kind {
		case value.KindInt, value.KindBool, value.KindTime:
			col.Ints = col.Ints[:copy(col.Ints, col.Ints[k:])]
		case value.KindFloat:
			col.Floats = col.Floats[:copy(col.Floats, col.Floats[k:])]
		case value.KindString:
			clear(col.Strs[copy(col.Strs, col.Strs[k:]):])
			col.Strs = col.Strs[:len(col.Strs)-k]
		default:
			clear(col.Vals[copy(col.Vals, col.Vals[k:]):])
			col.Vals = col.Vals[:len(col.Vals)-k]
		}
	}
	b.N -= k
}

// The accounting currency: what one cell holds on its plane.
const (
	wordBytes  = 8  // an int, bool, chronon or float cell
	strBytes   = 16 // a string cell's header; its payload adds
	boxedBytes = 40 // a boxed cell's value.Value; a string payload adds
)

// cellBytes is the price of one cell on a plane of storage kind k
// (KindInvalid: boxed) before any string payload.
func cellBytes(k value.Kind) int64 {
	switch k {
	case value.KindInt, value.KindBool, value.KindTime, value.KindFloat:
		return wordBytes
	case value.KindString:
		return strBytes
	default:
		return boxedBytes
	}
}

// fixedBytes is the part of a row's price that does not depend on the row,
// and varying reports a column whose cells add a payload.
func (b *Batch) fixedBytes() (fixed int64, varying bool) {
	for c := range b.Cols {
		k := b.Cols[c].Kind
		fixed += cellBytes(k)
		varying = varying || k == value.KindString || k == value.KindInvalid
	}
	return fixed, varying
}

// RowBytes is Bytes' price of one row of schema s before string payloads —
// the currency of the engine's arbiter for a caller that knows how many
// rows but not which: the cost model's spill threshold.
func RowBytes(s *schema.Schema) int64 {
	var n int64
	for i := 0; i < s.Len(); i++ {
		n += cellBytes(s.At(i).Kind)
	}
	return n
}

// Bytes prices the presented rows [lo, hi) by what they hold on the
// planes: 8 B per int, bool, chronon or float cell, a 16 B header plus the
// payload per string cell, and a 40 B value plus any string payload per
// boxed cell. It is the one accounting currency of the engine's memory
// arbiter and of a spill file's MemBytes, priced once per range: a
// fixed-width schema reads no row, and otherwise only the string cells are
// read.
func (b *Batch) Bytes(lo, hi int) int64 {
	fixed, varying := b.fixedBytes()
	n := int64(hi-lo) * fixed
	if !varying {
		return n
	}
	for c := range b.Cols {
		col := &b.Cols[c]
		switch col.Kind {
		case value.KindString:
			if b.Sel == nil {
				for _, s := range col.Strs[lo:hi] {
					n += int64(len(s))
				}
				continue
			}
			for _, i := range b.Sel[lo:hi] {
				n += int64(len(col.Strs[i]))
			}
		case value.KindInvalid:
			for k := lo; k < hi; k++ {
				if v := col.Vals[b.RowIndex(k)]; v.Kind() == value.KindString {
					n += int64(len(v.AsString()))
				}
			}
		}
	}
	return n
}

// Fit returns the end k of the longest run of presented rows [lo, k), k ≤
// hi, whose Bytes fit room, and those bytes: arithmetic for a fixed-width
// schema, and otherwise one price of the whole range, walking the rows only
// when it does not fit.
func (b *Batch) Fit(lo, hi int, room int64) (int, int64) {
	fixed, varying := b.fixedBytes()
	if room < 0 {
		return lo, 0
	}
	if !varying {
		k := hi
		if fixed > 0 {
			k = lo + int(min(int64(hi-lo), room/fixed))
		}
		return k, int64(k-lo) * fixed
	}
	if n := b.Bytes(lo, hi); n <= room {
		return hi, n
	}
	var used int64
	k := lo
	for ; k < hi; k++ {
		r := b.Bytes(k, k+1)
		if used+r > room {
			break
		}
		used += r
	}
	return k, used
}

// Package column is the one physical form of a relation's list between
// disk, engine and wire: a Batch of typed column planes (Vec) plus an
// optional selection vector. The execution engine's operators consume and
// produce batches, a relation holds one as its primary or cached form, and
// the spill block codec encodes a batch's presented rows straight from the
// planes and decodes back into them — for spill partitions, store segments
// and the server's rows frames alike.
//
// The package is a leaf: it knows values, schemas and periods, and nothing
// about tuples, operators or codecs.
package column

import (
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

// FillRow writes the physical row i into a caller-owned scratch row.
func (b *Batch) FillRow(t []value.Value, i int) {
	for c := range b.Cols {
		t[c] = b.Cols[c].At(i)
	}
}

// AppendRow appends src's physical row i as a new physical row.
func (b *Batch) AppendRow(src *Batch, i int) {
	for c := range b.Cols {
		b.Cols[c].AppendFrom(&src.Cols[c], i)
	}
	b.N++
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
// selection is returned as-is.
func (b *Batch) Compact() *Batch {
	if b.Sel == nil {
		return b
	}
	out := NewBatch(b.Schema, len(b.Sel))
	for c := range out.Cols {
		for _, i := range b.Sel {
			out.Cols[c].AppendFrom(&b.Cols[c], i)
		}
	}
	out.N = len(b.Sel)
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
	for c := range out.Cols {
		col := &out.Cols[c]
		for _, p := range parts {
			src := &p.Cols[c]
			if p.Sel == nil {
				col.AppendRange(src, 0, p.N)
				continue
			}
			for _, i := range p.Sel {
				col.AppendFrom(src, i)
			}
		}
	}
	out.N = total
	return out
}

// tupleOverhead approximates the resident cost of one row held as a tuple
// beyond its values: the slice header plus allocator slack.
const tupleOverhead = 48

// valueSize is the resident size of one value.Value struct.
const valueSize = 40

// MemSize estimates the resident bytes of physical row i — the accounting
// currency of the engine's memory arbiter and of a spill file's MemBytes.
// It prices the row as a tuple would be (headers and allocator slack
// included, plus string payloads), deliberately leaning high: the budget is
// a working-set bound, and over-counting errs toward spilling early rather
// than blowing the budget.
func (b *Batch) MemSize(i int) int64 {
	n := int64(tupleOverhead) + int64(len(b.Cols))*valueSize
	for c := range b.Cols {
		col := &b.Cols[c]
		switch col.Kind {
		case value.KindString:
			n += int64(len(col.Strs[i]))
		case value.KindInvalid:
			if v := col.Vals[i]; v.Kind() == value.KindString {
				n += int64(len(v.AsString()))
			}
		}
	}
	return n
}

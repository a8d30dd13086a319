// Package relation implements the paper's relation schema instances
// (Definition 2.2): finite *sequences* of tuples over a schema. A relation
// is a list — it can contain duplicate tuples, and the ordering of tuples is
// significant. Multiset and set views are derived on demand for the weaker
// equivalence types.
//
// A list has one physical form, a column.Batch. Every constructor builds
// it, and Len, Columns, PeriodOf, Permuted and Sorted answer from it, so a
// result that is only counted, scanned by the engine again or encoded onto
// the wire never builds a tuple. Tuples and At are a read-only view of the
// batch, derived once, the first time a reader asks, and shared with every
// Clone; FromTuplesTrusted keeps the caller's slice as that view. A
// relation never changes its list after construction — only its recorded
// order (SetOrder) — so a reordered or filtered list is a new relation,
// usually a selection view of the same batch.
package relation

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"tqp/internal/column"
	"tqp/internal/period"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// Relation is a list of tuples over a schema, together with the bookkeeping
// the optimizer exploits: the known order of the list (the paper's Order(r)
// function) and lazily computed duplicate/coalescing state.
type Relation struct {
	schema *schema.Schema
	order  OrderSpec
	*list
	own list // the list a constructor built; a Clone shares its source's
}

// list is one immutable batch and its read-only tuple view, set once under
// derive. Relations over the same list share the view, so however many
// copies of a base relation a plan scans, its tuples are derived once.
type list struct {
	cols   *column.Batch
	tuples []Tuple
	derive sync.Once
}

// Columns returns the list as one immutable batch; callers must not mutate
// it.
func (r *Relation) Columns() *column.Batch { return r.cols }

// columnsOf transposes a tuple list to one batch over s.
func columnsOf(s *schema.Schema, ts []Tuple) *column.Batch {
	b := column.NewBatch(s, len(ts))
	for c := range b.Cols {
		col := &b.Cols[c]
		for _, t := range ts {
			col.Append(t[c])
		}
	}
	b.N = len(ts)
	return b
}

// FromTuplesTrusted builds a relation from a tuple list without validation.
// The caller guarantees schema alignment and hands over the slice, which
// becomes the relation's tuple view: the list is transposed once, and no
// reader derives it again.
func FromTuplesTrusted(s *schema.Schema, tuples []Tuple) *Relation {
	r := FromColumnar(s, columnsOf(s, tuples))
	r.derive.Do(func() { r.tuples = tuples })
	return r
}

// FromColumnar wraps an immutable batch as a relation over s, with no known
// order.
func FromColumnar(s *schema.Schema, b *column.Batch) *Relation {
	r := &Relation{schema: s}
	r.own.cols = b
	r.list = &r.own
	return r
}

// FromTuples builds a relation over s from the given tuples, validating each
// against the schema. The relation is considered unordered.
func FromTuples(s *schema.Schema, tuples []Tuple) (*Relation, error) {
	for i, t := range tuples {
		if err := t.CheckAgainst(s); err != nil {
			return nil, fmt.Errorf("tuple %d: %w", i, err)
		}
	}
	return FromTuplesTrusted(s, tuples), nil
}

// MustFromRows builds a relation from untyped rows (for tests, examples and
// catalogs), converting each cell to the schema's domain. It panics on any
// mismatch.
func MustFromRows(s *schema.Schema, rows [][]any) *Relation {
	r, err := FromRows(s, rows)
	if err != nil {
		panic(err.Error())
	}
	return r
}

// FromRows is MustFromRows returning conversion errors instead of
// panicking — the ingestion path for data that did not come from a fixture
// (e.g. rows appended to a persistent catalog at runtime). The cells go
// straight onto the batch's planes.
func FromRows(s *schema.Schema, rows [][]any) (*Relation, error) {
	b := column.NewBatch(s, len(rows))
	for j, row := range rows {
		if len(row) != s.Len() {
			return nil, fmt.Errorf("relation: row %d arity %d vs schema %s", j, len(row), s)
		}
		for i, cell := range row {
			v, ok := convertCell(s.At(i).Kind, cell)
			if !ok {
				return nil, fmt.Errorf("relation: row %d: cannot convert %T to %s", j, cell, s.At(i).Kind)
			}
			b.Cols[i].Append(v)
		}
	}
	b.N = len(rows)
	return FromColumnar(s, b), nil
}

func convertCell(k value.Kind, cell any) (value.Value, bool) {
	switch k {
	case value.KindInt:
		switch c := cell.(type) {
		case int:
			return value.Int(int64(c)), true
		case int64:
			return value.Int(c), true
		}
	case value.KindFloat:
		switch c := cell.(type) {
		case float64:
			return value.Float(c), true
		case int:
			return value.Float(float64(c)), true
		}
	case value.KindString:
		if c, ok := cell.(string); ok {
			return value.String_(c), true
		}
	case value.KindBool:
		if c, ok := cell.(bool); ok {
			return value.Bool(c), true
		}
	case value.KindTime:
		switch c := cell.(type) {
		case int:
			return value.Time(period.Chronon(c)), true
		case int64:
			return value.Time(period.Chronon(c)), true
		case period.Chronon:
			return value.Time(c), true
		}
	}
	return value.Value{}, false
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *schema.Schema { return r.schema }

// Len is the paper's n(r): the cardinality of the list.
func (r *Relation) Len() int { return r.cols.Rows() }

// At returns the i-th tuple (not a copy; callers must not mutate).
func (r *Relation) At(i int) Tuple { return r.Tuples()[i] }

// Tuples returns the list's tuple view (not a copy), derived from the batch
// on the first call — once, however many goroutines ask. The slice is
// shared by every caller, so callers must not write into it.
func (r *Relation) Tuples() []Tuple {
	r.derive.Do(func() { r.tuples = tuplesOf(r.cols) })
	return r.tuples
}

// tuplesOf materializes a batch's presented rows as tuples cut from one
// backing array, so a list costs one allocation, not one per row.
func tuplesOf(b *column.Batch) []Tuple {
	n, arity := b.Rows(), len(b.Cols)
	ts := make([]Tuple, n)
	vals := make([]value.Value, n*arity)
	for k := range ts {
		ts[k] = vals[k*arity : (k+1)*arity : (k+1)*arity]
		b.FillRow(ts[k], b.RowIndex(k))
	}
	return ts
}

// Order returns the known order of the relation, the paper's Order(r). An
// empty spec means the relation is not known to be ordered.
func (r *Relation) Order() OrderSpec { return r.order }

// SetOrder records the known order of the relation. It is the evaluator's
// job to only record orders the list actually satisfies; SortedBy can verify.
func (r *Relation) SetOrder(o OrderSpec) { r.order = o }

// Clone returns a relation over the same list — its batch and its tuple
// view — whose recorded order can be set independently.
func (r *Relation) Clone() *Relation {
	return &Relation{schema: r.schema, order: append(OrderSpec(nil), r.order...), list: r.list}
}

// Permuted returns the list r[idx[0]], r[idx[1]], … as a new relation with
// no known order: a selection view of the batch, so no row is copied and no
// tuple is built. idx is typically a permutation of 0..Len()-1, and the
// result may keep it.
func (r *Relation) Permuted(idx []int) *Relation {
	return FromColumnar(r.schema, r.cols.Select(idx))
}

// Sorted returns the list stable-sorted by o, recording o as its order: a
// selection view of the batch (Permuted). Stability matters: the paper's
// sort "retains duplicates" and list semantics elsewhere depend on the
// relative order of ties, so ties keep their list positions.
func (r *Relation) Sorted(o OrderSpec) (*Relation, error) {
	if err := o.Validate(r.schema); err != nil {
		return nil, err
	}
	pos := make([]int, len(o))
	for k, key := range o {
		pos[k] = r.schema.Index(key.Attr)
	}
	b := r.cols
	idx := make([]int, r.Len())
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(i, j int) int {
		pi, pj := b.RowIndex(i), b.RowIndex(j)
		for k, c := range pos {
			d := b.Cols[c].At(pi).Compare(b.Cols[c].At(pj))
			if o[k].Dir == Desc {
				d = -d
			}
			if d != 0 {
				return d
			}
		}
		return cmp.Compare(i, j)
	})
	out := r.Permuted(idx)
	out.order = o
	return out, nil
}

// Temporal reports whether the relation is temporal.
func (r *Relation) Temporal() bool { return r.schema.Temporal() }

// PeriodOf returns the time period of the i-th tuple of a temporal relation.
func (r *Relation) PeriodOf(i int) period.Period {
	t1, t2 := r.schema.TimeIndices()
	return r.cols.PeriodAt(t1, t2, r.cols.RowIndex(i))
}

// Periods returns the periods of all tuples of a temporal relation.
func (r *Relation) Periods() []period.Period {
	out := make([]period.Period, r.Len())
	for i := range out {
		out[i] = r.PeriodOf(i)
	}
	return out
}

// CompareOn orders two tuples by the given order spec; attributes outside
// the spec do not participate.
func CompareOn(s *schema.Schema, o OrderSpec, a, b Tuple) int {
	for _, k := range o {
		i := s.Index(k.Attr)
		c := a[i].Compare(b[i])
		if k.Dir == Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// SortedBy reports whether the tuple list actually satisfies the order spec.
func (r *Relation) SortedBy(o OrderSpec) bool {
	if err := o.Validate(r.schema); err != nil {
		return false
	}
	ts := r.Tuples()
	for i := 1; i < len(ts); i++ {
		if CompareOn(r.schema, o, ts[i-1], ts[i]) > 0 {
			return false
		}
	}
	return true
}

// HasDuplicates reports whether the list contains two equal tuples (regular
// duplicates).
func (r *Relation) HasDuplicates() bool {
	ts := r.Tuples()
	return r.anyPair(Tuple.Hash, func(i, j int) bool { return ts[i].Equal(ts[j]) })
}

// anyPair reports whether two rows i < j satisfy match(i, j), trying only
// pairs with equal hashes — match must imply them. Rows are chained per hash
// through one index slice, so the pass allocates a map and a slice, never a
// key per row.
func (r *Relation) anyPair(hash func(Tuple) uint64, match func(i, j int) bool) bool {
	ts := r.Tuples()
	head := make(map[uint64]int, len(ts)) // hash → latest row + 1
	prev := make([]int, len(ts))          // row → previous row with its hash + 1
	for j, t := range ts {
		h := hash(t)
		for i := head[h]; i > 0; i = prev[i-1] {
			if match(i-1, j) {
				return true
			}
		}
		prev[j], head[h] = head[h], j+1
	}
	return false
}

// valueIdx returns the positions of the non-time attributes.
func (r *Relation) valueIdx() []int {
	t1, t2 := r.schema.TimeIndices()
	idx := make([]int, 0, r.schema.Len())
	for i := 0; i < r.schema.Len(); i++ {
		if i == t1 || i == t2 {
			continue
		}
		idx = append(idx, i)
	}
	return idx
}

// valuePair reports whether two value-equivalent tuples of a temporal
// relation have periods related by rel (Overlaps or Adjacent, both false
// on an empty period).
func (r *Relation) valuePair(rel func(p, q period.Period) bool) bool {
	idx := r.valueIdx()
	ts := r.Tuples()
	return r.anyPair(func(t Tuple) uint64 { return t.HashOn(idx) }, func(i, j int) bool {
		return rel(r.PeriodOf(i), r.PeriodOf(j)) && ts[i].EqualOn(idx, ts[j])
	})
}

// HasSnapshotDuplicates reports whether any snapshot of a temporal relation
// contains duplicate tuples — i.e., whether two value-equivalent tuples have
// overlapping periods. For snapshot relations it coincides with
// HasDuplicates.
func (r *Relation) HasSnapshotDuplicates() bool {
	if !r.Temporal() {
		return r.HasDuplicates()
	}
	return r.valuePair(period.Period.Overlaps)
}

// IsCoalesced reports whether the relation contains no pair of
// value-equivalent tuples with adjacent periods and no pair with overlapping
// periods that could be merged. Per Section 2.4, coalescing merges
// value-equivalent tuples with *adjacent* periods; a relation with snapshot
// duplicates is not considered uncoalesced by that criterion, so we check
// adjacency only. Coalescing is undefined for snapshot relations.
func (r *Relation) IsCoalesced() bool {
	return r.Temporal() && !r.valuePair(period.Period.Adjacent)
}

// Snapshot returns the snapshot of a temporal relation at instant t: the
// conventional relation containing those tuples (without the time periods)
// whose period contains t, in list order (Section 2.1).
func (r *Relation) Snapshot(t period.Chronon) *Relation {
	if !r.Temporal() {
		panic("relation: Snapshot of a snapshot relation")
	}
	idx := r.valueIdx()
	names := make([]string, len(idx))
	for i, j := range idx {
		names[i] = r.schema.At(j).Name
	}
	snapSchema, err := r.schema.Project(names)
	if err != nil {
		panic("relation: snapshot schema: " + err.Error())
	}
	var ts []Tuple
	for i, tp := range r.Tuples() {
		if r.PeriodOf(i).Contains(t) {
			nt := make(Tuple, len(idx))
			for k, j := range idx {
				nt[k] = tp[j]
			}
			ts = append(ts, nt)
		}
	}
	out := FromTuplesTrusted(snapSchema, ts)
	out.SetOrder(r.order.Prefix(names))
	return out
}

// CriticalInstants returns one witness chronon per elementary interval of
// the relation's periods. Snapshot-equivalence and snapshot-reducibility
// checks over these witnesses cover every instant of the domain.
func (r *Relation) CriticalInstants() []period.Chronon {
	return period.Witnesses(r.Periods())
}

// EqualAsList reports list equivalence of the tuple sequences (schema
// compatibility is the caller's concern; see package equiv for the full
// six-way equivalence checks).
func (r *Relation) EqualAsList(o *Relation) bool {
	if r.Len() != o.Len() {
		return false
	}
	rt, ot := r.Tuples(), o.Tuples()
	for i := range rt {
		if !rt[i].Equal(ot[i]) {
			return false
		}
	}
	return true
}

// String renders the relation as an aligned table, matching the layout of
// the paper's figures.
func (r *Relation) String() string {
	names := r.schema.Names()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	cells := make([][]string, r.Len())
	for i, t := range r.Tuples() {
		row := make([]string, len(t))
		for j, v := range t {
			row[j] = v.String()
			if len(row[j]) > widths[j] {
				widths[j] = len(row[j])
			}
		}
		cells[i] = row
	}
	var b strings.Builder
	writeRow := func(row []string) {
		for j, c := range row {
			if j > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[j]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(names)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}

// Package catalog manages named base relations together with the metadata
// the optimizer needs: declared order, duplicate-freeness, snapshot
// duplicate-freeness, coalescing state, and simple statistics for the cost
// model. It also provides the paper's example database (Figure 1).
package catalog

import (
	"fmt"
	"hash/fnv"
	"sort"

	"tqp/internal/algebra"
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/store"
	"tqp/internal/value"
)

// Stats keeps what the cost model reads of a base relation: the cardinality
// n(r), and the period summary ScanEstimate prices travel scans with. Each
// field merges batch by batch (extend), so an append never rescans.
type Stats struct {
	// Card is the tuple count.
	Card int
	// AvgPeriod is the mean period duration of a temporal relation.
	AvgPeriod float64
	// MinT and MaxT bound the non-empty periods of a temporal relation
	// (earliest start, latest end) — the selectivity anchors for
	// time-travel scans. Both are 0 for snapshot relations and for
	// temporal relations with no non-empty periods.
	MinT, MaxT period.Chronon

	// dur sums the durations behind AvgPeriod, so an extended Stats is
	// bit-identical to one built in a single pass.
	dur int64
}

// extend returns the statistics with r's rows from position from on folded
// in, their periods read off whatever form r holds — a store-loaded
// relation's columns build no tuple for it.
func (st Stats) extend(r *relation.Relation, from int) Stats {
	st.Card += r.Len() - from
	if !r.Temporal() || st.Card == 0 {
		return st
	}
	for i := from; i < r.Len(); i++ {
		p := r.PeriodOf(i)
		if p.Empty() {
			continue
		}
		st.dur += p.Duration()
		if st.MinT == st.MaxT { // the first non-empty period: Start < End
			st.MinT, st.MaxT = p.Start, p.End
		}
		st.MinT, st.MaxT = min(st.MinT, p.Start), max(st.MaxT, p.End)
	}
	st.AvgPeriod = float64(st.dur) / float64(st.Card)
	return st
}

// Entry is one catalog relation.
type Entry struct {
	Name  string
	Rel   *relation.Relation
	Info  algebra.BaseInfo
	Stats Stats

	// segs mirrors the persistent store's segment list for a disk-backed
	// relation (append order; cumulative Rows give each segment's row
	// range within Rel). Nil for purely in-memory entries, which have no
	// period index to prune with.
	segs []store.SegmentInfo
}

// Catalog is a set of named relations.
type Catalog struct {
	entries map[string]*Entry

	// st is the persistent store backing this catalog's relations, or nil
	// for an in-memory catalog. Appends and compactions write through to
	// it, and its manifest version is folded into Fingerprint so cached
	// plans never outlive the data they were planned against.
	st *store.Store

	// met holds the cumulative scan counters (see metrics.go).
	met meters
}

// New returns an empty catalog.
func New() *Catalog { return &Catalog{entries: make(map[string]*Entry)} }

// Add registers a relation under name. The Info flags are verified against
// the instance so that the optimizer's static reasoning starts from true
// premises; Add fails on a lie (e.g., declaring Distinct over data with
// duplicates).
func (c *Catalog) Add(name string, r *relation.Relation, info algebra.BaseInfo) error {
	if _, dup := c.entries[name]; dup {
		return fmt.Errorf("catalog: relation %q already exists", name)
	}
	if err := verifyInfo(name, r, info); err != nil {
		return err
	}
	r = r.Clone()
	r.SetOrder(info.Order)
	c.entries[name] = &Entry{Name: name, Rel: r, Info: info, Stats: Stats{}.extend(r, 0)}
	return nil
}

// AddTrusted registers a relation whose Info the caller vouches for,
// skipping Add's instance verification and defensive clone. It exists for
// execution-only catalogs built from data that already passed Add once —
// shard slices of a verified relation, or a coordinator's gathered
// intermediate results — where re-verification per shard would turn setup
// into an O(shards·n) scan. The relation must not be mutated after
// registration. Stats hold Card only; these catalogs execute plans, they
// don't cost them.
func (c *Catalog) AddTrusted(name string, r *relation.Relation, info algebra.BaseInfo) error {
	if _, dup := c.entries[name]; dup {
		return fmt.Errorf("catalog: relation %q already exists", name)
	}
	r.SetOrder(info.Order)
	c.entries[name] = &Entry{Name: name, Rel: r, Info: info, Stats: Stats{Card: r.Len()}}
	return nil
}

// MustAdd is Add panicking on error, for catalog literals.
func (c *Catalog) MustAdd(name string, r *relation.Relation, info algebra.BaseInfo) {
	if err := c.Add(name, r, info); err != nil {
		panic(err)
	}
}

// verifyInfo checks declared base-info flags against the instance — the
// truth gate shared by Add and by appends to existing entries (an append
// must not silently falsify what the optimizer was promised).
func verifyInfo(name string, r *relation.Relation, info algebra.BaseInfo) error {
	if info.Distinct && r.HasDuplicates() {
		return fmt.Errorf("catalog: %q declared distinct but has duplicates", name)
	}
	if info.SnapshotDistinct && r.HasSnapshotDuplicates() {
		return fmt.Errorf("catalog: %q declared snapshot-distinct but has snapshot duplicates", name)
	}
	if info.Coalesced && !r.IsCoalesced() {
		return fmt.Errorf("catalog: %q declared coalesced but is not", name)
	}
	if !info.Order.Empty() && !r.SortedBy(info.Order) {
		return fmt.Errorf("catalog: %q declared sorted by %s but is not", name, info.Order)
	}
	return nil
}

// Resolve implements eval.Source. Scan names carrying a time-travel suffix
// (see ScanName) resolve to the period-filtered view of their base
// relation.
func (c *Catalog) Resolve(name string) (*relation.Relation, error) {
	r, _, _, err := c.ResolveScan(name)
	return r, err
}

// Entry returns the catalog entry for name.
func (c *Catalog) Entry(name string) (*Entry, error) {
	e, ok := c.entries[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown relation %q", name)
	}
	return e, nil
}

// Node returns an algebra leaf for the named relation, carrying its schema
// and base info.
func (c *Catalog) Node(name string) (*algebra.Rel, error) {
	e, ok := c.entries[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown relation %q", name)
	}
	return algebra.NewRel(e.Name, e.Rel.Schema(), e.Info), nil
}

// MustNode is Node panicking on error.
func (c *Catalog) MustNode(name string) *algebra.Rel {
	n, err := c.Node(name)
	if err != nil {
		panic(err)
	}
	return n
}

// Fingerprint returns a stable hash of the catalog's planning-relevant
// state: relation names, schemas, base-info flags, declared orders, the
// exported Stats and segment counts. Equal fingerprints yield identical
// plans for any statement, so the fingerprint keys cached physical plans
// (the server's plan cache) — a catalog swap or a statistics change
// invalidates every entry keyed under the old one. Instance tuples are not
// hashed; they don't influence planning, only Stats does.
func (c *Catalog) Fingerprint() string {
	h := fnv.New64a()
	for _, name := range c.Names() {
		e := c.entries[name]
		fmt.Fprintf(h, "%s|%s|%v|%v|%v|%s|%d|%.9g|%d|%d|%d;",
			name, e.Rel.Schema(), e.Info.Distinct, e.Info.SnapshotDistinct,
			e.Info.Coalesced, e.Info.Order, e.Stats.Card, e.Stats.AvgPeriod,
			e.Stats.MinT, e.Stats.MaxT, len(e.segs))
	}
	if c.st != nil {
		// The manifest version counts every durable commit, so a cached
		// plan keyed under an older fingerprint can never be replayed over
		// appended or compacted data.
		fmt.Fprintf(h, "store|%d;", c.st.Version())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Names returns the catalog's relation names, sorted.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.entries))
	for n := range c.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// EmployeeSchema is the schema of the paper's EMPLOYEE relation.
func EmployeeSchema() *schema.Schema {
	return schema.MustNew(
		schema.Attr("EmpName", value.KindString),
		schema.Attr("Dept", value.KindString),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime),
	)
}

// ProjectSchema is the schema of the paper's PROJECT relation.
func ProjectSchema() *schema.Schema {
	return schema.MustNew(
		schema.Attr("EmpName", value.KindString),
		schema.Attr("Prj", value.KindString),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime),
	)
}

// Paper returns the example database of Figure 1: the EMPLOYEE and PROJECT
// temporal relations, with time values denoting months during some year and
// a closed-open representation for time periods.
func Paper() *Catalog {
	c := New()
	emp := relation.MustFromRows(EmployeeSchema(), [][]any{
		{"John", "Sales", 1, 8},
		{"John", "Advertising", 6, 11},
		{"Anna", "Sales", 2, 6},
		{"Anna", "Advertising", 2, 6},
		{"Anna", "Sales", 6, 12},
	})
	prj := relation.MustFromRows(ProjectSchema(), [][]any{
		{"John", "P1", 2, 3},
		{"John", "P2", 5, 6},
		{"John", "P1", 7, 8},
		{"John", "P3", 9, 10},
		{"Anna", "P2", 3, 4},
		{"Anna", "P2", 5, 6},
		{"Anna", "P3", 7, 8},
		{"Anna", "P3", 9, 10},
	})
	// EMPLOYEE is distinct as a list of (name, dept, period) tuples but has
	// duplicates in snapshots (Anna holds two departments over [2,6));
	// PROJECT rows are distinct and snapshot-distinct (no employee is on
	// the same project twice at once) but neither relation is coalesced as
	// projected views may become; both are stored unordered.
	c.MustAdd("EMPLOYEE", emp, algebra.BaseInfo{Distinct: true})
	c.MustAdd("PROJECT", prj, algebra.BaseInfo{Distinct: true, SnapshotDistinct: true})
	return c
}

// PaperResultRows returns the paper's expected Result relation from
// Figure 1 (sorted by EmpName ASC, coalesced, snapshot-duplicate-free) as
// raw rows over (EmpName, T1, T2).
func PaperResultRows() [][]any {
	return [][]any{
		{"Anna", 2, 3},
		{"Anna", 4, 5},
		{"Anna", 6, 7},
		{"Anna", 8, 9},
		{"Anna", 10, 12},
		{"John", 1, 2},
		{"John", 3, 5},
		{"John", 6, 7},
		{"John", 8, 9},
		{"John", 10, 11},
	}
}

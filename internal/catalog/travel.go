package catalog

import (
	"fmt"
	"strconv"
	"strings"

	"tqp/internal/algebra"
	"tqp/internal/period"
	"tqp/internal/relation"
)

// TravelKind distinguishes the two time-travel scan forms.
type TravelKind int

const (
	// TravelAsOf restricts a scan to tuples whose period contains one
	// chronon: FOR SYSTEM_TIME AS OF t.
	TravelAsOf TravelKind = iota
	// TravelPeriod restricts a scan to tuples whose period overlaps a
	// query period: FOR PERIOD [a, b).
	TravelPeriod
)

// Travel is a time-travel restriction attached to a base-relation scan.
type Travel struct {
	Kind TravelKind
	// T is the AS OF chronon (TravelAsOf only).
	T period.Chronon
	// Start and End bound the query period (TravelPeriod only).
	Start, End period.Chronon
}

// QueryPeriod returns the closed-open period a travel scan filters by. For
// integer chronons, AS OF t is exactly overlap with [t, t+1).
func (tr Travel) QueryPeriod() period.Period {
	if tr.Kind == TravelAsOf {
		return period.New(tr.T, tr.T+1)
	}
	return period.New(tr.Start, tr.End)
}

// travelAsOfSep and travelDuringSep are the scan-name suffixes that encode a
// travel restriction. The names flow through the planner and engines as
// opaque Rel names; only the catalog's resolution layer interprets them.
const (
	travelAsOfSep   = "@asof:"
	travelDuringSep = "@during:"
)

// ScanName encodes a travel restriction into a scan name: BASE@asof:t or
// BASE@during:a:b. With a nil travel it returns base unchanged.
func ScanName(base string, tr *Travel) string {
	if tr == nil {
		return base
	}
	if tr.Kind == TravelAsOf {
		return fmt.Sprintf("%s%s%d", base, travelAsOfSep, tr.T)
	}
	return fmt.Sprintf("%s%s%d:%d", base, travelDuringSep, tr.Start, tr.End)
}

// ParseScanName splits a scan name into its base relation and travel
// restriction. Names without a well-formed travel suffix parse as plain
// (name, nil) — resolution gives exact catalog entries priority anyway, so a
// literal relation name containing "@asof:" still resolves to itself.
func ParseScanName(name string) (string, *Travel) {
	if i := strings.LastIndex(name, travelAsOfSep); i > 0 {
		t, err := strconv.ParseInt(name[i+len(travelAsOfSep):], 10, 64)
		if err == nil {
			return name[:i], &Travel{Kind: TravelAsOf, T: period.Chronon(t)}
		}
	}
	if i := strings.LastIndex(name, travelDuringSep); i > 0 {
		rest := name[i+len(travelDuringSep):]
		if j := strings.IndexByte(rest, ':'); j > 0 {
			a, errA := strconv.ParseInt(rest[:j], 10, 64)
			b, errB := strconv.ParseInt(rest[j+1:], 10, 64)
			if errA == nil && errB == nil {
				return name[:i], &Travel{Kind: TravelPeriod, Start: period.Chronon(a), End: period.Chronon(b)}
			}
		}
	}
	return name, nil
}

// TravelNode returns an algebra leaf for a time-travel scan of the named
// relation. The leaf's Rel name carries the encoded restriction; its schema
// and base info are the base relation's, which stay valid for the filtered
// view: a subsequence of a distinct (snapshot-distinct, coalesced, ordered)
// tuple list keeps each property.
func (c *Catalog) TravelNode(name string, tr *Travel) (*algebra.Rel, error) {
	e, ok := c.entries[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown relation %q", name)
	}
	if tr == nil {
		return algebra.NewRel(e.Name, e.Rel.Schema(), e.Info), nil
	}
	if !e.Rel.Schema().Temporal() {
		return nil, fmt.Errorf("catalog: %q is not temporal; FOR clauses need (T1, T2) periods", name)
	}
	if tr.QueryPeriod().Empty() {
		return nil, fmt.Errorf("catalog: empty query period for %q", name)
	}
	return algebra.NewRel(ScanName(name, tr), e.Rel.Schema(), e.Info), nil
}

// ResolveScan resolves a scan name to its relation and reports the period
// index's work: how many segments the scan read and how many the min/max
// fences let it skip. Both counters are zero for in-memory entries (no
// segments to prune) and (len(segments), 0) for an unrestricted scan of a
// disk-backed relation.
func (c *Catalog) ResolveScan(name string) (*relation.Relation, int, int, error) {
	// Exact entries win: a literal name that merely looks like a travel
	// suffix must resolve to itself, never be reinterpreted.
	if e, ok := c.entries[name]; ok {
		c.countScan(len(e.segs), 0)
		return e.Rel, len(e.segs), 0, nil
	}
	base, tr := ParseScanName(name)
	if tr == nil {
		return nil, 0, 0, fmt.Errorf("catalog: unknown relation %q", name)
	}
	e, ok := c.entries[base]
	if !ok {
		return nil, 0, 0, fmt.Errorf("catalog: unknown relation %q", base)
	}
	if !e.Rel.Schema().Temporal() {
		return nil, 0, 0, fmt.Errorf("catalog: %q is not temporal; FOR clauses need (T1, T2) periods", base)
	}
	qp := tr.QueryPeriod()
	var idx []int
	scanned, skipped := 0, 0
	keep := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if e.Rel.PeriodOf(i).Overlaps(qp) {
				idx = append(idx, i)
			}
		}
	}
	if e.segs != nil {
		// Disk-backed: walk the segment list, consulting each segment's
		// fence before touching its row range. Cumulative Rows offsets map
		// segments onto the materialized relation.
		off := 0
		for _, sg := range e.segs {
			if sg.MayOverlap(qp) {
				scanned++
				keep(off, off+sg.Rows)
			} else {
				skipped++
			}
			off += sg.Rows
		}
	} else {
		keep(0, e.Rel.Len())
	}
	// The kept rows are an index vector over the base list: a columnar
	// base answers with a selection view of its batch, copying no row.
	out := e.Rel.Permuted(idx)
	out.SetOrder(e.Rel.Order())
	c.countScan(scanned, skipped)
	return out, scanned, skipped, nil
}

// ScanEstimate summarizes what a scan will touch, for the cost model.
type ScanEstimate struct {
	// Rows estimates the scan's output cardinality.
	Rows float64
	// Segments is how many disk segments the scan must read after fence
	// pruning; zero for in-memory relations.
	Segments int
}

// ScanEstimate prices a scan name without executing it. The row estimate for
// a travel scan scales the base cardinality by the query period's share of
// the relation's [MinT, MaxT) span, widened by the mean tuple period (a
// tuple overlaps [a,b) when its start falls in [a-avg, b)).
func (c *Catalog) ScanEstimate(name string) (ScanEstimate, bool) {
	if e, ok := c.entries[name]; ok {
		return ScanEstimate{Rows: float64(e.Stats.Card), Segments: len(e.segs)}, true
	}
	base, tr := ParseScanName(name)
	if tr == nil {
		return ScanEstimate{}, false
	}
	e, ok := c.entries[base]
	if !ok {
		return ScanEstimate{}, false
	}
	qp := tr.QueryPeriod()
	est := ScanEstimate{Rows: float64(e.Stats.Card)}
	if span := float64(e.Stats.MaxT - e.Stats.MinT); span > 0 {
		sel := (float64(qp.Duration()) + e.Stats.AvgPeriod) / span
		if sel > 1 {
			sel = 1
		}
		est.Rows *= sel
	}
	for _, sg := range e.segs {
		if sg.MayOverlap(qp) {
			est.Segments++
		}
	}
	return est, true
}

package period

import (
	"slices"
	"sort"
)

// Endpoints collects the distinct start and end chronons of the given
// periods in ascending order. Between two consecutive endpoints the
// membership of every period is constant, so the returned slice induces the
// elementary intervals used by snapshot-equivalence checks and by the
// constant-interval evaluation of temporal aggregation.
func Endpoints(ps []Period) []Chronon {
	out := make([]Chronon, 0, 2*len(ps))
	for _, p := range ps {
		if !p.Empty() {
			out = append(out, p.Start, p.End)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// ElementaryIntervals returns the sequence of maximal periods within which
// the membership of every input period is constant. The result partitions
// the union of the inputs' coverage plus gaps between consecutive endpoints.
func ElementaryIntervals(ps []Period) []Period {
	es := Endpoints(ps)
	if len(es) < 2 {
		return nil
	}
	out := make([]Period, 0, len(es)-1)
	for i := 0; i+1 < len(es); i++ {
		out = append(out, Period{Start: es[i], End: es[i+1]})
	}
	return out
}

// Witnesses returns one representative chronon per elementary interval of
// the input periods. Checking a snapshot-reducible property at every witness
// is equivalent to checking it at every chronon of the domain, because
// snapshots are constant between consecutive endpoints.
func Witnesses(ps []Period) []Chronon {
	ivs := ElementaryIntervals(ps)
	out := make([]Chronon, 0, len(ivs))
	for _, iv := range ivs {
		out = append(out, iv.Start)
	}
	return out
}

// CoalesceAll merges every set of mergeable (overlapping or adjacent)
// periods in ps into maximal periods, returned in ascending order. It is a
// utility for statistics and tests; the algebra's coal^T operation merges
// adjacent periods of value-equivalent tuples only and lives in the
// evaluator.
func CoalesceAll(ps []Period) []Period {
	live := make([]Period, 0, len(ps))
	for _, p := range ps {
		if !p.Empty() {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return nil
	}
	sort.Slice(live, func(i, j int) bool { return live[i].Compare(live[j]) < 0 })
	out := []Period{live[0]}
	for _, p := range live[1:] {
		last := &out[len(out)-1]
		if merged, ok := last.Union(p); ok {
			*last = merged
		} else {
			out = append(out, p)
		}
	}
	return out
}

// CoverageDuration returns the total number of chronons covered by at least
// one of the given periods.
func CoverageDuration(ps []Period) int64 {
	var total int64
	for _, p := range CoalesceAll(ps) {
		total += p.Duration()
	}
	return total
}

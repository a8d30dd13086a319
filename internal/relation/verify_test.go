package relation_test

import (
	"fmt"
	"math/rand"
	"testing"

	"tqp/internal/datagen"
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// The string-key formulations of the three verification predicates, kept
// as the oracle for the hash-bucketed ones in relation.go.

func keyHasDuplicates(r *relation.Relation) bool {
	seen := make(map[string]bool)
	for _, t := range r.Tuples() {
		if seen[t.Key()] {
			return true
		}
		seen[t.Key()] = true
	}
	return false
}

func keyValueIdx(s *schema.Schema) []int {
	t1, t2 := s.TimeIndices()
	var idx []int
	for i := 0; i < s.Len(); i++ {
		if i != t1 && i != t2 {
			idx = append(idx, i)
		}
	}
	return idx
}

// keyValuePair reports whether two value-equivalent tuples with non-empty
// periods satisfy rel.
func keyValuePair(r *relation.Relation, rel func(p, q period.Period) bool) bool {
	idx := keyValueIdx(r.Schema())
	groups := make(map[string][]period.Period)
	for i, t := range r.Tuples() {
		k := t.KeyOn(idx)
		p := r.PeriodOf(i)
		if p.Empty() {
			continue
		}
		for _, q := range groups[k] {
			if rel(p, q) {
				return true
			}
		}
		groups[k] = append(groups[k], p)
	}
	return false
}

func keyHasSnapshotDuplicates(r *relation.Relation) bool {
	if !r.Temporal() {
		return keyHasDuplicates(r)
	}
	return keyValuePair(r, period.Period.Overlaps)
}

func keyIsCoalesced(r *relation.Relation) bool {
	return r.Temporal() && !keyValuePair(r, period.Period.Adjacent)
}

// withEmptyPeriods replaces the period of roughly frac of the rows with an
// empty one ([s, s) or [s+1, s)), keeping the values.
func withEmptyPeriods(r *relation.Relation, rng *rand.Rand, frac float64) *relation.Relation {
	t1, t2 := r.Schema().TimeIndices()
	out := make([]relation.Tuple, 0, r.Len())
	for i, t := range r.Tuples() {
		if rng.Float64() < frac {
			s := r.PeriodOf(i).Start
			t = t.WithPeriodAt(t1, t2, period.Period{Start: s + period.Chronon(rng.Intn(2)), End: s})
		}
		out = append(out, t)
	}
	return relation.FromTuplesTrusted(r.Schema(), out)
}

// TestVerificationMatchesStringKeys pins HasDuplicates,
// HasSnapshotDuplicates and IsCoalesced against their string-key oracles on
// generated relations with exact duplicates, adjacent value-equivalent
// periods and empty periods, plus hand cases. The sweep must see both
// answers of every predicate, or it proves nothing.
func TestVerificationMatchesStringKeys(t *testing.T) {
	var cases []*relation.Relation
	rng := rand.New(rand.NewSource(1))
	for seed := int64(0); seed < 300; seed++ {
		r := datagen.Temporal(datagen.TemporalSpec{
			Rows:      1 + rng.Intn(24),
			Values:    1 + rng.Intn(12),
			TimeRange: 10 + rng.Intn(60),
			MaxPeriod: 1 + rng.Intn(8),
			DupFrac:   []float64{0, 0.05, 0.25}[seed%3],
			AdjFrac:   []float64{0, 0.3, 0.6}[(seed/3)%3],
			Seed:      seed,
		})
		if seed%4 == 0 {
			r = withEmptyPeriods(r, rng, 0.3)
		}
		cases = append(cases, r)
		if seed%5 == 0 {
			cases = append(cases, datagen.Snapshot(datagen.SnapshotSpec{
				Rows: 1 + rng.Intn(12), Values: 1 + rng.Intn(10), DupFrac: 0.1, Seed: seed,
			}))
		}
	}
	tsch := datagen.TemporalSchema()
	for _, rows := range [][][]any{
		{},
		{{"a", 1, 3, 5}, {"a", 1, 5, 8}}, // identical values, touching periods
		{{"a", 1, 3, 6}, {"a", 1, 5, 8}}, // identical values, overlapping periods
		{{"a", 1, 3, 6}, {"a", 2, 5, 8}}, // overlapping, not value-equivalent
		{{"a", 1, 5, 5}, {"a", 1, 5, 8}, {"a", 1, 2, 5}}, // an empty period between touching ones
		{{"a", 1, 5, 5}, {"a", 1, 5, 5}},                 // two identical empty periods
		{{"a", 1, 7, 4}, {"a", 1, 4, 7}},                 // an inverted period meeting its mirror
	} {
		cases = append(cases, relation.MustFromRows(tsch, rows))
	}
	cases = append(cases,
		relation.MustFromRows(datagen.SnapshotSchema(), [][]any{{"a", 1}, {"b", 1}}),
		relation.MustFromRows(datagen.SnapshotSchema(), [][]any{{"a", 1}, {"b", 1}, {"a", 1}}),
	)

	type pred struct {
		name      string
		got, want func(*relation.Relation) bool
		seen      [2]int
	}
	preds := []*pred{
		{name: "HasDuplicates", got: (*relation.Relation).HasDuplicates, want: keyHasDuplicates},
		{name: "HasSnapshotDuplicates", got: (*relation.Relation).HasSnapshotDuplicates, want: keyHasSnapshotDuplicates},
		{name: "IsCoalesced", got: (*relation.Relation).IsCoalesced, want: keyIsCoalesced},
	}
	for n, r := range cases {
		for _, p := range preds {
			got, want := p.got(r), p.want(r)
			if got != want {
				t.Fatalf("case %d: %s = %v, string-key oracle says %v on\n%s", n, p.name, got, want, r)
			}
			if got {
				p.seen[1]++
			} else {
				p.seen[0]++
			}
		}
	}
	for _, p := range preds {
		t.Logf("%s: %d false, %d true", p.name, p.seen[0], p.seen[1])
		if p.seen[0] == 0 || p.seen[1] == 0 {
			t.Errorf("%s answered false %d and true %d times: the sweep is vacuous", p.name, p.seen[0], p.seen[1])
		}
	}
}

// TestVerificationAllocsIndependentOfRows: the three checks allocate their
// buckets once, not a key per row, so quadrupling the rows barely moves the
// allocation count.
func TestVerificationAllocsIndependentOfRows(t *testing.T) {
	allocs := func(rows int) [3]float64 {
		ts := make([]relation.Tuple, rows)
		for i := range ts {
			ts[i] = relation.NewTuple(value.String_(fmt.Sprintf("v%d", i)), value.Int(int64(i)),
				value.Time(period.Chronon(2*i)), value.Time(period.Chronon(2*i+1)))
		}
		r := relation.FromTuplesTrusted(datagen.TemporalSchema(), ts)
		var out [3]float64
		for k, f := range []func() bool{r.HasDuplicates, r.HasSnapshotDuplicates, r.IsCoalesced} {
			out[k] = testing.AllocsPerRun(5, func() { f() })
		}
		return out
	}
	small, large := allocs(1024), allocs(4096)
	t.Logf("allocations at 1k rows %v, at 4k rows %v", small, large)
	for k := range small {
		if large[k]-small[k] > 64 {
			t.Errorf("check %d: %v allocations at 1k rows, %v at 4k — it allocates per row", k, small[k], large[k])
		}
	}
}

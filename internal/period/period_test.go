package period

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyAndValid(t *testing.T) {
	cases := []struct {
		p     Period
		empty bool
	}{
		{New(1, 8), false},
		{New(8, 8), true},
		{New(9, 3), true},
		{Period{}, true},
	}
	for _, c := range cases {
		if got := c.p.Empty(); got != c.empty {
			t.Errorf("%v.Empty() = %v, want %v", c.p, got, c.empty)
		}
	}
	if !New(1, 8).Valid() {
		t.Error("New(1,8) should be valid")
	}
	if New(8, 8).Valid() {
		t.Error("New(8,8) should be invalid")
	}
}

func TestContains(t *testing.T) {
	p := New(2, 6)
	for _, c := range []struct {
		t    Chronon
		want bool
	}{{1, false}, {2, true}, {5, true}, {6, false}} {
		if got := p.Contains(c.t); got != c.want {
			t.Errorf("[2,6).Contains(%d) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestOverlapsAndMeets(t *testing.T) {
	// The paper's example: John is in Sales over [1,8) and in Advertising
	// over [6,11); the two periods overlap.
	if !New(1, 8).Overlaps(New(6, 11)) {
		t.Error("[1,8) should overlap [6,11)")
	}
	// Anna's Sales periods [2,6) and [6,12) are adjacent, not overlapping.
	if New(2, 6).Overlaps(New(6, 12)) {
		t.Error("[2,6) should not overlap [6,12)")
	}
	if !New(2, 6).Meets(New(6, 12)) {
		t.Error("[2,6) should meet [6,12)")
	}
	if !New(2, 6).Adjacent(New(6, 12)) || !New(6, 12).Adjacent(New(2, 6)) {
		t.Error("adjacency should hold in both directions")
	}
	if New(2, 6).Meets(New(7, 9)) {
		t.Error("[2,6) should not meet [7,9)")
	}
}

func TestIntersect(t *testing.T) {
	got := New(1, 8).Intersect(New(6, 11))
	if !got.Equal(New(6, 8)) {
		t.Errorf("[1,8) ∩ [6,11) = %v, want [6,8)", got)
	}
	if !New(1, 3).Intersect(New(5, 9)).Empty() {
		t.Error("disjoint intersection should be empty")
	}
}

func TestSubtract(t *testing.T) {
	cases := []struct {
		p, q Period
		want []Period
	}{
		// Figure 3: [6,11) − [1,8) = [8,11) — John's second tuple in R3.
		{New(6, 11), New(1, 8), []Period{New(8, 11)}},
		// Full containment removes the period: Anna's duplicate [2,6).
		{New(2, 6), New(2, 6), nil},
		// Splitting: subtracting the middle yields two fragments.
		{New(1, 10), New(4, 6), []Period{New(1, 4), New(6, 10)}},
		// Disjoint subtraction is the identity.
		{New(1, 3), New(5, 9), []Period{New(1, 3)}},
	}
	for _, c := range cases {
		got := c.p.Subtract(c.q)
		if len(got) != len(c.want) {
			t.Errorf("%v − %v = %v, want %v", c.p, c.q, got, c.want)
			continue
		}
		for i := range got {
			if !got[i].Equal(c.want[i]) {
				t.Errorf("%v − %v = %v, want %v", c.p, c.q, got, c.want)
			}
		}
	}
}

func TestUnion(t *testing.T) {
	u, ok := New(2, 6).Union(New(6, 12))
	if !ok || !u.Equal(New(2, 12)) {
		t.Errorf("[2,6) ∪ [6,12) = %v (%v), want [2,12)", u, ok)
	}
	if _, ok := New(1, 3).Union(New(5, 9)); ok {
		t.Error("disjoint periods must not be unionable")
	}
}

func randomPeriod(r *rand.Rand) Period {
	a := Chronon(r.Intn(50))
	b := a + Chronon(1+r.Intn(20))
	return New(a, b)
}

// TestSubtractProperties checks, for random periods, the defining property
// of subtraction: the fragments partition p's chronons outside q.
func TestSubtractProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, q := randomPeriod(r), randomPeriod(r)
		frags := p.Subtract(q)
		for c := p.Start - 2; c <= p.End+2; c++ {
			want := p.Contains(c) && !q.Contains(c)
			got := false
			for _, f := range frags {
				if f.Contains(c) {
					got = true
				}
			}
			if got != want {
				return false
			}
		}
		// Fragments are disjoint, non-empty, ascending.
		for i, f := range frags {
			if f.Empty() {
				return false
			}
			if i > 0 && frags[i-1].End > f.Start {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestIntersectProperties checks pointwise correctness of intersection.
func TestIntersectProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, q := randomPeriod(r), randomPeriod(r)
		iv := p.Intersect(q)
		for c := minC(p.Start, q.Start) - 1; c <= maxC(p.End, q.End)+1; c++ {
			if iv.Contains(c) != (p.Contains(c) && q.Contains(c)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompare(t *testing.T) {
	if New(1, 5).Compare(New(1, 8)) >= 0 {
		t.Error("[1,5) should precede [1,8) in the order")
	}
	if New(2, 3).Compare(New(1, 9)) <= 0 {
		t.Error("[2,3) should follow [1,9)")
	}
	if (Period{}).Compare(New(1, 2)) >= 0 {
		t.Error("empty periods sort first")
	}
}

func TestEndpointsAndWitnesses(t *testing.T) {
	ps := []Period{New(1, 8), New(6, 11), New(2, 6)}
	es := Endpoints(ps)
	want := []Chronon{1, 2, 6, 8, 11}
	if len(es) != len(want) {
		t.Fatalf("Endpoints = %v, want %v", es, want)
	}
	for i := range es {
		if es[i] != want[i] {
			t.Fatalf("Endpoints = %v, want %v", es, want)
		}
	}
	ivs := ElementaryIntervals(ps)
	if len(ivs) != 4 {
		t.Fatalf("ElementaryIntervals = %v, want 4 intervals", ivs)
	}
	ws := Witnesses(ps)
	if len(ws) != 4 || ws[0] != 1 || ws[3] != 8 {
		t.Fatalf("Witnesses = %v", ws)
	}
}

// TestEndpointsMatchDefinition checks Endpoints against its definition —
// the ascending, distinct start and end chronons of the non-empty periods —
// on random lists mixing empty, duplicate and nested periods.
func TestEndpointsMatchDefinition(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		r := rand.New(rand.NewSource(seed))
		var ps []Period
		for i := r.Intn(12); i > 0; i-- {
			switch r.Intn(4) {
			case 0: // empty, possibly inverted
				a := Chronon(r.Intn(50))
				ps = append(ps, New(a, a-Chronon(r.Intn(3))))
			case 1: // a duplicate of an earlier period
				if len(ps) > 0 {
					ps = append(ps, ps[r.Intn(len(ps))])
					continue
				}
				ps = append(ps, randomPeriod(r))
			case 2: // nested inside an earlier non-empty period
				if len(ps) > 0 && !ps[len(ps)-1].Empty() {
					outer := ps[len(ps)-1]
					a := outer.Start + Chronon(r.Int63n(int64(outer.End-outer.Start)))
					ps = append(ps, New(a, a+Chronon(r.Int63n(int64(outer.End-a)+1))))
					continue
				}
				ps = append(ps, randomPeriod(r))
			default:
				ps = append(ps, randomPeriod(r))
			}
		}
		seen := map[Chronon]bool{}
		var want []Chronon
		for c := Chronon(-5); c <= 80; c++ {
			for _, p := range ps {
				if !p.Empty() && (p.Start == c || p.End == c) && !seen[c] {
					seen[c] = true
					want = append(want, c)
				}
			}
		}
		got := Endpoints(ps)
		if len(got) != len(want) {
			t.Fatalf("seed %d: Endpoints(%v) = %v, want %v", seed, ps, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: Endpoints(%v) = %v, want %v", seed, ps, got, want)
			}
		}
	}
}

// TestWitnessesCoverMembershipChanges: between consecutive witnesses no
// period's membership changes — the core guarantee behind snapshot checks.
func TestWitnessesCoverMembershipChanges(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		ps := make([]Period, n)
		for i := range ps {
			ps[i] = randomPeriod(r)
		}
		ivs := ElementaryIntervals(ps)
		for _, iv := range ivs {
			for c := iv.Start; c < iv.End; c++ {
				for _, p := range ps {
					if p.Contains(c) != p.Contains(iv.Start) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCoalesceAll(t *testing.T) {
	got := CoalesceAll([]Period{New(6, 12), New(1, 4), New(2, 6), New(20, 22)})
	want := []Period{New(1, 12), New(20, 22)}
	if len(got) != len(want) {
		t.Fatalf("CoalesceAll = %v, want %v", got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("CoalesceAll = %v, want %v", got, want)
		}
	}
	if d := CoverageDuration([]Period{New(1, 4), New(2, 6)}); d != 5 {
		t.Errorf("CoverageDuration = %d, want 5", d)
	}
}

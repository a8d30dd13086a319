package relation

import (
	"testing"

	"tqp/internal/period"
)

func nowSample() *Relation {
	r := MustFromRows(temporalSchema(), [][]any{
		{"a", 1, 1, 4},                     // closed fact
		{"b", 2, 3, int(period.NowMarker)}, // still true
		{"c", 3, 9, int(period.NowMarker)}, // starts later than some reference instants
	})
	return r
}

func TestBindNow(t *testing.T) {
	r := nowSample()
	if !r.HasNowRelative() {
		t.Fatal("sample holds NOW-relative tuples")
	}
	asOf7 := r.BindNow(7)
	if asOf7.HasNowRelative() {
		t.Error("binding must remove every sentinel")
	}
	if asOf7.Len() != 2 {
		t.Fatalf("as of 7: c has not started yet:\n%s", asOf7)
	}
	if p := asOf7.PeriodOf(1); !p.Equal(period.New(3, 7)) {
		t.Errorf("b bound to %s, want [3,7)", p)
	}
	if p := asOf7.PeriodOf(0); !p.Equal(period.New(1, 4)) {
		t.Errorf("closed facts must be untouched, got %s", p)
	}

	asOf12 := r.BindNow(12)
	if asOf12.Len() != 3 {
		t.Fatalf("as of 12 all facts exist:\n%s", asOf12)
	}
	if p := asOf12.PeriodOf(2); !p.Equal(period.New(9, 12)) {
		t.Errorf("c bound to %s, want [9,12)", p)
	}
}

func TestBindNowPreservesOrderSpec(t *testing.T) {
	spec := OrderSpec{Key("Name")}
	r, err := nowSample().Sorted(spec)
	if err != nil {
		t.Fatal(err)
	}
	bound := r.BindNow(10)
	if !bound.Order().Equal(spec) {
		t.Errorf("BindNow dropped the order spec: %s", bound.Order())
	}
	if !bound.SortedBy(spec) {
		t.Error("bound relation must stay sorted")
	}
}

func TestBindNowOnConventional(t *testing.T) {
	s := nowSample().Snapshot(3)
	if s.HasNowRelative() {
		t.Error("snapshots carry no periods")
	}
	if got := s.BindNow(5); got.Len() != s.Len() {
		t.Error("binding a conventional relation is the identity")
	}
}

func TestPeriodBindNow(t *testing.T) {
	open := period.New(3, period.NowMarker)
	if !open.IsNowRelative() {
		t.Fatal("IsNowRelative")
	}
	if p := open.BindNow(8); !p.Equal(period.New(3, 8)) {
		t.Errorf("bound = %s", p)
	}
	if p := open.BindNow(3); !p.Empty() {
		t.Errorf("a fact starting at the reference instant is empty, got %s", p)
	}
	closed := period.New(1, 5)
	if closed.IsNowRelative() || !closed.BindNow(3).Equal(closed) {
		t.Error("closed periods are untouched")
	}
}

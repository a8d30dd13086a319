package eval_test

import (
	"fmt"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/datagen"
	"tqp/internal/equiv"
	"tqp/internal/eval"
	"tqp/internal/expr"
	"tqp/internal/period"
	"tqp/internal/relation"
)

// snapshotReducibilityCase pairs a temporal operation with its conventional
// counterpart for the Section 2.2 test: for every instant t,
// snap(opᵀ(r), t) ≡M op(snap(r, t)).
type snapshotReducibilityCase struct {
	name string
	// temporal builds the temporal operation over temporal inputs.
	temporal func(l, r algebra.Node) algebra.Node
	// conventional builds the counterpart over snapshot inputs.
	conventional func(l, r algebra.Node) algebra.Node
	binary       bool
	// project trims the temporal result's snapshot to make the schemas
	// comparable (×ᵀ retains qualified argument timestamps as data).
	project func(snap *relation.Relation) *relation.Relation
}

func reducibilityCases() []snapshotReducibilityCase {
	aggs := []expr.Aggregate{
		{Func: expr.CountAll, As: "cnt"},
		{Func: expr.Min, Arg: "Grp", As: "mn"},
		{Func: expr.Sum, Arg: "Grp", As: "sm"},
	}
	return []snapshotReducibilityCase{
		{
			name:         "rdupT",
			temporal:     func(l, _ algebra.Node) algebra.Node { return algebra.NewTRdup(l) },
			conventional: func(l, _ algebra.Node) algebra.Node { return algebra.NewRdup(l) },
		},
		{
			name:         "diffT",
			temporal:     func(l, r algebra.Node) algebra.Node { return algebra.NewTDiff(l, r) },
			conventional: func(l, r algebra.Node) algebra.Node { return algebra.NewDiff(l, r) },
			binary:       true,
		},
		{
			name:         "unionT",
			temporal:     func(l, r algebra.Node) algebra.Node { return algebra.NewTUnion(l, r) },
			conventional: func(l, r algebra.Node) algebra.Node { return algebra.NewUnion(l, r) },
			binary:       true,
		},
		{
			name: "aggrT",
			temporal: func(l, _ algebra.Node) algebra.Node {
				return algebra.NewTAggregate([]string{"Name"}, aggs, l)
			},
			conventional: func(l, _ algebra.Node) algebra.Node {
				return algebra.NewAggregate([]string{"Name"}, aggs, l)
			},
		},
		{
			name: "productT",
			temporal: func(l, r algebra.Node) algebra.Node {
				// Project away the retained argument timestamps so that the
				// snapshot matches the conventional product of snapshots.
				prod := algebra.NewTProduct(l, r)
				s, err := prod.Schema()
				if err != nil {
					panic(err)
				}
				drop := map[string]bool{"1.T1": true, "1.T2": true, "2.T1": true, "2.T2": true}
				var keep []string
				for _, a := range s.Attributes() {
					if !drop[a.Name] {
						keep = append(keep, a.Name)
					}
				}
				return algebra.NewProjectCols(prod, keep...)
			},
			conventional: func(l, r algebra.Node) algebra.Node { return algebra.NewProduct(l, r) },
			binary:       true,
		},
	}
}

// TestSnapshotReducibility is the defining property of the temporal
// operations (Section 2.2): conceptually they evaluate their conventional
// counterpart at each point of time. We verify, for randomized inputs and
// at one witness instant per elementary interval, that the snapshot of the
// temporal result is multiset-equal to the counterpart applied to the
// snapshots of the arguments.
func TestSnapshotReducibility(t *testing.T) {
	for _, tc := range reducibilityCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 30; seed++ {
				l := datagen.Temporal(datagen.TemporalSpec{
					Rows: 10, Values: 3, DupFrac: 0.25, AdjFrac: 0.25, Seed: seed,
				})
				r := datagen.Temporal(datagen.TemporalSpec{
					Rows: 8, Values: 3, DupFrac: 0.25, AdjFrac: 0.25, Seed: seed + 500,
				})
				if err := checkReducibility(tc, l, r); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

func checkReducibility(tc snapshotReducibilityCase, l, r *relation.Relation) error {
	src := eval.MapSource{"L": l, "R": r}
	ev := eval.New(src)
	ln := algebra.NewRel("L", l.Schema(), algebra.BaseInfo{})
	rn := algebra.NewRel("R", r.Schema(), algebra.BaseInfo{})

	tempOut, err := ev.Eval(tc.temporal(ln, rn))
	if err != nil {
		return fmt.Errorf("temporal eval: %v", err)
	}

	ps := append(l.Periods(), r.Periods()...)
	ps = append(ps, tempOut.Periods()...)
	for _, w := range period.Witnesses(ps) {
		snapL, snapR := l.Snapshot(w), r.Snapshot(w)
		snapSrc := eval.MapSource{"SL": snapL, "SR": snapR}
		sn := algebra.NewRel("SL", snapL.Schema(), algebra.BaseInfo{})
		srn := algebra.NewRel("SR", snapR.Schema(), algebra.BaseInfo{})
		want, err := eval.New(snapSrc).Eval(tc.conventional(sn, srn))
		if err != nil {
			return fmt.Errorf("conventional eval at %d: %v", w, err)
		}
		got := tempOut.Snapshot(w)
		ok, err := equiv.Check(equiv.Multiset, got, renamed(want, got))
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("at instant %d: snap(opT(r)) ≠M op(snap(r)):\ngot\n%s\nwant\n%s",
				w, got, want)
		}
	}
	return nil
}

// renamed rebuilds want's tuples under got's schema when the two agree in
// arity and domains but differ in attribute names (conventional
// counterparts rename time attributes; snapshots drop them differently).
func renamed(want, got *relation.Relation) *relation.Relation {
	ws, gs := want.Schema(), got.Schema()
	if ws.Equal(gs) || ws.Len() != gs.Len() {
		return want
	}
	for i := 0; i < ws.Len(); i++ {
		if ws.At(i).Kind != gs.At(i).Kind {
			return want
		}
	}
	return relation.FromTuplesTrusted(gs, want.Tuples())
}

// TestTRdupIdempotent: rdupᵀ is idempotent, and its output never has
// duplicates in snapshots.
func TestTRdupIdempotent(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := datagen.Temporal(datagen.TemporalSpec{
			Rows: 12, Values: 3, DupFrac: 0.3, AdjFrac: 0.3, Seed: seed,
		})
		src := eval.MapSource{"R": r}
		ev := eval.New(src)
		node := algebra.NewRel("R", r.Schema(), algebra.BaseInfo{})
		once, err := ev.Eval(algebra.NewTRdup(node))
		if err != nil {
			t.Fatal(err)
		}
		if once.HasSnapshotDuplicates() {
			t.Fatalf("seed %d: rdupT output has snapshot duplicates:\n%s", seed, once)
		}
		src2 := eval.MapSource{"O": once}
		twice, err := eval.New(src2).Eval(algebra.NewTRdup(algebra.NewRel("O", once.Schema(), algebra.BaseInfo{})))
		if err != nil {
			t.Fatal(err)
		}
		if !once.EqualAsList(twice) {
			t.Fatalf("seed %d: rdupT is not idempotent", seed)
		}
	}
}

// TestCoalProperties: coalescing never changes any snapshot (rule C2's
// ground truth), is idempotent, and enforces adjacency-freeness.
func TestCoalProperties(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := datagen.Temporal(datagen.TemporalSpec{
			Rows: 12, Values: 3, DupFrac: 0.2, AdjFrac: 0.5, Seed: seed,
		})
		src := eval.MapSource{"R": r}
		ev := eval.New(src)
		node := algebra.NewRel("R", r.Schema(), algebra.BaseInfo{})
		coal, err := ev.Eval(algebra.NewCoal(node))
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := equiv.Check(equiv.SnapshotMultiset, r, coal); err != nil || !ok {
			t.Fatalf("seed %d: coalT changed some snapshot (err=%v)", seed, err)
		}
		if !coal.IsCoalesced() {
			t.Fatalf("seed %d: coalT output is not coalesced:\n%s", seed, coal)
		}
		src2 := eval.MapSource{"C": coal}
		again, err := eval.New(src2).Eval(algebra.NewCoal(algebra.NewRel("C", coal.Schema(), algebra.BaseInfo{})))
		if err != nil {
			t.Fatal(err)
		}
		if !coal.EqualAsList(again) {
			t.Fatalf("seed %d: coalT is not idempotent", seed)
		}
	}
}

// TestCanonicalization: coalT ∘ rdupT produces the same set of tuples for
// any snapshot-equivalent inputs — the canonicity that lets periods go
// unpreserved below coalescing (Section 5.2).
func TestCanonicalization(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := datagen.Temporal(datagen.TemporalSpec{
			Rows: 10, Values: 3, DupFrac: 0.3, AdjFrac: 0.4, Seed: seed,
		})
		// A snapshot-equivalent variant: fragment every tuple at its period
		// midpoint.
		t1, t2 := r.Schema().TimeIndices()
		var pieces []relation.Tuple
		for i, tp := range r.Tuples() {
			p := r.PeriodOf(i)
			if p.Duration() >= 2 {
				mid := p.Start + period.Chronon(p.Duration()/2)
				pieces = append(pieces, tp.WithPeriodAt(t1, t2, period.New(p.Start, mid)),
					tp.WithPeriodAt(t1, t2, period.New(mid, p.End)))
			} else {
				pieces = append(pieces, tp)
			}
		}
		frag := relation.FromTuplesTrusted(r.Schema(), pieces)
		if ok, _ := equiv.Check(equiv.SnapshotMultiset, r, frag); !ok {
			t.Fatalf("seed %d: fragmentation should preserve snapshots", seed)
		}

		canon := func(in *relation.Relation) *relation.Relation {
			src := eval.MapSource{"X": in}
			out, err := eval.New(src).Eval(
				algebra.NewCoal(algebra.NewTRdup(algebra.NewRel("X", in.Schema(), algebra.BaseInfo{}))))
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		a, b := canon(r), canon(frag)
		if ok, _ := equiv.Check(equiv.Multiset, a, b); !ok {
			t.Fatalf("seed %d: coalT∘rdupT is not canonical across snapshot-equivalent inputs:\n%s\nvs\n%s",
				seed, a, b)
		}
	}
}

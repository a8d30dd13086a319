package exec_test

import (
	"math/rand"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/datagen"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/relation"
)

// TestTDiffReadsRightUpToSM pins the claim the sharded \ᵀ push rests on:
// \ᵀ needs its right argument only up to ≡SM, so permuting the right
// argument's list leaves the output list unchanged — on the sequential,
// parallel and spilling engines alike, over 240 random temporal pairs. The
// vacuity guard asks that the right argument cut some left periods into
// pieces and share value groups with the left in most pairs.
func TestTDiffReadsRightUpToSM(t *testing.T) {
	configs := []exec.Config{{}, {Parallelism: 3}, {MemoryBudget: 16 << 10}}
	plan := algebra.NewTDiff(algebra.NewRel("L", datagen.TemporalSchema(), algebra.BaseInfo{}),
		algebra.NewRel("R", datagen.TemporalSchema(), algebra.BaseInfo{}))
	shared, fragmented := 0, 0
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := func(rows int, seed int64) datagen.TemporalSpec {
			return datagen.TemporalSpec{Rows: rows, Values: 4 + rng.Intn(20), DupFrac: 0.2, AdjFrac: 0.3,
				TimeRange: 120, MaxPeriod: 15, Seed: seed}
		}
		left := datagen.Temporal(spec(20+rng.Intn(200), 1000+seed))
		right := datagen.Temporal(spec(rng.Intn(200), 5000+seed))
		shuffled := right.Permuted(rng.Perm(right.Len()))
		var want *relation.Relation
		for _, cfg := range configs {
			for _, r := range []*relation.Relation{right, shuffled} {
				got, err := exec.NewWith(eval.MapSource{"L": left, "R": r}, cfg).Eval(plan)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if want == nil {
					want = got
				} else if !got.EqualAsList(want) {
					t.Fatalf("seed %d, config %+v: \\ᵀ's output list moved with its right argument's order", seed, cfg)
				}
			}
		}
		if sharesGroup(left, right) {
			shared++
		}
		if cutsPeriods(left, want) {
			fragmented++
		}
	}
	if shared < 200 || fragmented < 200 {
		t.Fatalf("vacuous: %d pairs share a value group, %d cut a left period, of 240", shared, fragmented)
	}
}

// sharesGroup reports whether some row of r agrees with some row of l on
// the value attributes (Name, Grp).
func sharesGroup(l, r *relation.Relation) bool {
	seen := make(map[[2]string]bool)
	for _, t := range l.Tuples() {
		seen[[2]string{t[0].String(), t[1].String()}] = true
	}
	for _, t := range r.Tuples() {
		if seen[[2]string{t[0].String(), t[1].String()}] {
			return true
		}
	}
	return false
}

// cutsPeriods reports whether out holds a row that is no row of l: a left
// period the difference cut into a piece.
func cutsPeriods(l, out *relation.Relation) bool {
	rows := make(map[string]bool)
	for _, t := range l.Tuples() {
		rows[t.String()] = true
	}
	for _, t := range out.Tuples() {
		if !rows[t.String()] {
			return true
		}
	}
	return false
}

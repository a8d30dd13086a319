package eval_test

import (
	"math/rand"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/datagen"
	"tqp/internal/eval"
)

// TestTDiffReadsRightUpToSM pins, on the reference evaluator, the claim the
// sharded \ᵀ push rests on: \ᵀ needs its right argument only up to ≡SM, so
// permuting the right argument's list leaves the output list unchanged,
// over 240 random temporal pairs. The vacuity guard asks that the
// difference remove something and cut some left period into pieces in most
// pairs.
func TestTDiffReadsRightUpToSM(t *testing.T) {
	plan := algebra.NewTDiff(algebra.NewRel("L", datagen.TemporalSchema(), algebra.BaseInfo{}),
		algebra.NewRel("R", datagen.TemporalSchema(), algebra.BaseInfo{}))
	removed, fragmented := 0, 0
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := func(rows int, seed int64) datagen.TemporalSpec {
			return datagen.TemporalSpec{Rows: rows, Values: 4 + rng.Intn(20), DupFrac: 0.2, AdjFrac: 0.3,
				TimeRange: 120, MaxPeriod: 15, Seed: seed}
		}
		left := datagen.Temporal(spec(20+rng.Intn(200), 1000+seed))
		right := datagen.Temporal(spec(rng.Intn(200), 5000+seed))
		want, err := eval.New(eval.MapSource{"L": left, "R": right}).Eval(plan)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for k := 0; k < 3; k++ {
			shuffled := right.Permuted(rng.Perm(right.Len()))
			got, err := eval.New(eval.MapSource{"L": left, "R": shuffled}).Eval(plan)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !got.EqualAsList(want) {
				t.Fatalf("seed %d: \\ᵀ's output list moved with its right argument's order", seed)
			}
		}
		if !want.EqualAsList(left) {
			removed++
		}
		rows := make(map[string]bool, left.Len())
		for _, tu := range left.Tuples() {
			rows[tu.String()] = true
		}
		for _, tu := range want.Tuples() {
			if !rows[tu.String()] {
				fragmented++
				break
			}
		}
	}
	if removed < 200 || fragmented < 200 {
		t.Fatalf("vacuous: %d pairs removed something, %d cut a left period, of 240", removed, fragmented)
	}
}

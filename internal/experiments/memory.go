package experiments

import (
	"math/rand"
	"os"
	"time"

	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/relation"
	"tqp/internal/testutil"
)

// E14MemoryBounded is the memory-bounded engine's experiment: differential
// parity against the reference evaluator on random plans under a tiny
// budget (vacuity-guarded by the engine's spill counters — the grace-hash
// paths must actually fire), then the throughput-vs-budget curve of the
// spill acceptance pipeline — rdupᵀ feeding coalᵀ — at 100k rows across
// budgets from 64KB to unlimited. BenchmarkSpill in the repo root runs the
// same pipeline (testutil.SpillPipeline) at 100k and 1M rows and feeds the
// BENCH_engines.json records CI's ns/B/allocs regression gates check; set
// TQP_E14_FULL=1 to extend this experiment's curve to 1M rows too (the
// spill acceptance test pins that scale under 16MB in the exec suite).
//
// The accounting gate holds every spilled run's PeakBytes near its budget:
// what the arbiter tracked as resident never exceeded budget plus the
// drain's one-tuple overshoot and the per-op share floor. The curve's
// interesting read is how flat it is — grace partitioning trades a giant
// hash table for sequential codec I/O, which modern page caches absorb.
func E14MemoryBounded() Report {
	b := newReport()

	// Differential parity on random conventional+temporal plans at a
	// spill-forcing budget, sequential and parallel.
	plans, mismatches, spilled := 0, 0, 0
	for seed := int64(70); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, bases := testutil.TemporalCatalogSized(seed, 240, 160)
		ref := eval.New(c)
		for trial := 0; trial < 5; trial++ {
			plan := testutil.RandomPlan(rng, bases, 2+rng.Intn(2))
			want, errRef := ref.Eval(plan)
			for _, par := range []int{1, 3} {
				eng := exec.NewWith(c, exec.Config{MemoryBudget: 32 << 10, Parallelism: par})
				got, errB := eng.Eval(plan)
				if (errRef == nil) != (errB == nil) {
					mismatches++
					continue
				}
				if errRef != nil {
					continue
				}
				spilled += eng.Stats().SpilledOps
				if !got.EqualAsList(want) || !got.Order().Equal(want.Order()) {
					mismatches++
				}
			}
			if errRef == nil {
				plans++
			}
		}
	}
	b.printf("  %d random plans through reference vs exec at a 32KB budget (1 and 3 workers), %d disagreements, %d operators spilled\n",
		plans, mismatches, spilled)
	b.check(mismatches == 0, "budgeted engine agrees list-exactly with the reference on every random plan")
	b.check(spilled > 0, "the grace-hash spill paths actually fired (non-vacuous differential)")

	// Throughput vs budget on the acceptance pipeline.
	sizes := []int{100000}
	if os.Getenv("TQP_E14_FULL") != "" {
		sizes = append(sizes, 1000000)
	}
	reps := 2
	if raceEnabled {
		reps = 1
	}
	budgets := []struct {
		name   string
		budget int64
	}{
		{"64KB", 64 << 10},
		{"1MB", 1 << 20},
		{"16MB", 16 << 20},
		{"unlimited", 0},
	}
	b.printf("  rdupT+coalT throughput vs budget (best of %d):\n", reps)
	b.printf("  %8s %10s %12s %11s %13s %13s\n", "rows", "budget", "time", "rows/s", "spilled", "peak")
	okParity, okPeak := true, true
	for _, rows := range sizes {
		src, plan := testutil.SpillPipeline(rows)
		var want *relation.Relation
		spilledAtSmall := 0
		for _, bg := range budgets {
			eng := exec.NewWith(src, exec.Config{MemoryBudget: bg.budget})
			var got *relation.Relation
			best := time.Duration(0)
			var st exec.Stats
			var err error
			for i := 0; i < reps; i++ {
				start := time.Now()
				got, err = eng.Eval(plan)
				if err != nil {
					break
				}
				if d := time.Since(start); best == 0 || d < best {
					best = d
				}
				st = eng.Stats()
			}
			if err != nil {
				b.pass = false
				b.printf("  rows=%d budget=%s: %v\n", rows, bg.name, err)
				continue
			}
			if want == nil {
				want = got
			} else if !got.EqualAsList(want) {
				okParity = false
			}
			if bg.budget == 64<<10 {
				spilledAtSmall = st.SpilledOps
			}
			if st.SpilledOps > 0 && bg.budget > 0 && st.PeakBytes > bg.budget+(64<<10) {
				okPeak = false
			}
			b.printf("  %8d %10s %12s %11.0f %12dB %12dB\n",
				rows, bg.name, best.Round(time.Millisecond), float64(rows)/best.Seconds(),
				st.SpilledBytes, st.PeakBytes)
		}
		b.check(spilledAtSmall >= 2, "the 64KB budget spills both pipeline operators")
	}
	b.check(okParity, "every budget produces the identical result list")
	b.check(okPeak, "accounted peak stays within budget (plus the drain overshoot slack)")
	return Report{ID: "E14", Title: "Extension — memory-bounded execution: throughput vs budget", Pass: b.pass, Body: b.String()}
}

package experiments

import (
	"math/rand"
	"runtime"
	"time"

	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/relation"
	"tqp/internal/testutil"
)

// E13ParallelScaling is the morsel-parallel engine's experiment: end-to-end
// differential parity against the reference evaluator on random plans
// (vacuity-guarded by the engine's exchange counters), then the speedup
// curve of the acceptance pipeline — equijoin ⋈ᵀ, rdupᵀ, coalᵀ — over
// worker counts 1/2/4/8 at 10k and 100k probe rows, with the sequential
// merge engine (worker count 1) as the baseline. BenchmarkParallel in the
// repo root extends the same curve to 1M rows and feeds the
// BENCH_engines.json artifact that CI's regression gate checks.
//
// The speedup gate applies only when min(NumCPU, GOMAXPROCS) ≥ 4 and the
// build is not race-instrumented: with fewer usable cores the exchange
// cannot buy wall-clock time (every partition shares a core), and under
// the race detector shadow-memory bookkeeping distorts parallel scaling —
// in both cases the curve is reported for information, parity still
// enforced. CI's GOMAXPROCS=1 matrix leg exercises exactly the degenerate
// serialized shape.
func E13ParallelScaling() Report {
	b := newReport()

	// Differential parity on random conventional+temporal plans, the
	// exchange fan-out pinned by the engine's own counters.
	plans, mismatches, exchanges := 0, 0, 0
	for seed := int64(50); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, bases := testutil.TemporalCatalog(seed)
		ref := eval.New(c)
		for trial := 0; trial < 6; trial++ {
			plan := testutil.RandomPlan(rng, bases, 2+rng.Intn(2))
			want, errRef := ref.Eval(plan)
			par := exec.NewWith(c, exec.Config{Parallelism: 3})
			got, errPar := par.Eval(plan)
			if (errRef == nil) != (errPar == nil) {
				mismatches++
				continue
			}
			if errRef != nil {
				continue
			}
			plans++
			exchanges += par.Stats().ParallelOps
			if !got.EqualAsList(want) || !got.Order().Equal(want.Order()) {
				mismatches++
			}
		}
	}
	b.printf("  %d random plans through reference vs exec-par3, %d disagreements, %d exchanges compiled\n",
		plans, mismatches, exchanges)
	b.check(mismatches == 0, "parallel engine agrees list-exactly with the reference on every random plan")
	b.check(exchanges > 0, "the parallel paths actually fired (non-vacuous differential)")

	// Scaling curve: the acceptance pipeline at 10k and 100k probe rows.
	// The usable width is min(cores, GOMAXPROCS): raising GOMAXPROCS past
	// the core count grants no parallel wall-clock, and CI's GOMAXPROCS=1
	// legs serialize every exchange by design.
	procs := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); n < procs {
		procs = n
	}
	b.printf("  join+rdupT+coalT scaling (best of 3), %d CPU(s), GOMAXPROCS=%d:\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
	b.printf("  %8s %8s %12s %9s\n", "rows", "workers", "time", "speedup")
	var topSpeedup float64
	okParity := true
	for _, rows := range []int{10000, 100000} {
		src, plan := testutil.ParallelPipeline(rows)

		var base float64
		var want *relation.Relation
		for _, workers := range []int{1, 2, 4, 8} {
			eng := exec.NewWith(src, exec.Config{Parallelism: workers})
			got, d, err := timedEvalN(eng, plan, 3)
			if err != nil {
				b.pass = false
				b.printf("  rows=%d workers=%d: %v\n", rows, workers, err)
				continue
			}
			if want == nil {
				want, base = got, float64(d)
			} else if !got.EqualAsList(want) {
				okParity = false
			}
			speedup := base / float64(d)
			if rows == 100000 && speedup > topSpeedup {
				topSpeedup = speedup
			}
			b.printf("  %8d %8d %12s %8.2fx\n", rows, workers, d.Round(time.Microsecond), speedup)
		}
	}
	b.check(okParity, "every worker count produces the identical result list")
	switch {
	case raceEnabled:
		b.printf("  [skip] speedup gate: race-instrumented build; curve reported for information only\n")
	case procs >= 4:
		// The acceptance bar: ≥2x over the single-worker engine at 100k
		// rows on a multi-core host. The workload is ~90% partitioned, so
		// an idle 4-core machine lands near 3x — 2x leaves the same noise
		// margin E11's gate does.
		b.check(topSpeedup >= 2, "parallel engine is ≥2x the single-worker engine at 100k rows")
	default:
		b.printf("  [skip] speedup gate: %d usable core(s); curve reported for information only\n", procs)
	}
	return Report{ID: "E13", Title: "Extension — morsel-parallel engine scaling", Pass: b.pass, Body: b.String()}
}

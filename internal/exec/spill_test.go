package exec_test

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/datagen"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/expr"
	"tqp/internal/relation"
	"tqp/internal/testutil"
	"tqp/internal/value"
)

// fuzzScale multiplies the differential suites' seed counts; the nightly
// spill-fuzz workflow sets TQP_FUZZ_SCALE=10 for a 10× deeper sweep.
func fuzzScale() int64 {
	if v := os.Getenv("TQP_FUZZ_SCALE"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
			return n
		}
	}
	return 1
}

// smallBudget is the spill-forcing budget of the five-way suite; the
// nightly workflow can tighten it via TQP_FUZZ_MEM (bytes).
func smallBudget() int64 {
	if v := os.Getenv("TQP_FUZZ_MEM"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
			return n
		}
	}
	return 64 << 10
}

// recordFuzzFailure appends a reproduction line to the file named by
// TQP_FUZZ_FAILURE_FILE (the nightly workflow uploads it as an artifact on
// failure), then fails the test.
func recordFuzzFailure(t *testing.T, format string, args ...any) {
	t.Helper()
	msg := fmt.Sprintf(format, args...)
	if path := os.Getenv("TQP_FUZZ_FAILURE_FILE"); path != "" {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err == nil {
			fmt.Fprintln(f, msg)
			f.Close()
		}
	}
	t.Fatal(msg)
}

// TestDifferentialFiveWay is the memory-bounded engine's correctness
// anchor: reference vs sequential vs parallel vs budgeted-spill at
// budgets {64KB, 1MB, unlimited}, all bit-identical on random plans. Every
// leg compiles the batch operators (vec.go) — each the variants
// physical.Decide picks for its width and budget — and runs the keyed
// blocking operators through the
// exchange driver's routes (resident, W-way, spilled), the keyless products
// through the join's, and the streaming group family wherever a delivered
// order keeps groups contiguous. Two sweeps run: tiny catalogs for plan-shape coverage, and
// sized catalogs (hundreds of rows) so the small budget genuinely forces
// the grace-hash spill paths — a vacuity guard asserts Stats.SpilledOps > 0
// there. The parallel budgeted leg
// exercises the per-worker budget shares.
func TestDifferentialFiveWay(t *testing.T) {
	small := smallBudget()
	type leg struct {
		name string
		opts exec.Config
	}
	legs := []leg{
		{"exec-merge", exec.Config{}},
		{"exec-par3", exec.Config{Parallelism: 3}},
		{"spill-small", exec.Config{MemoryBudget: small}},
		{"spill-1M", exec.Config{MemoryBudget: 1 << 20}},
		// An effectively unlimited budget keeps the grace code paths
		// compiled but never spilling — the in-memory grace shape.
		{"spill-unlimited", exec.Config{MemoryBudget: 1 << 40}},
		{"spill-small-par3", exec.Config{MemoryBudget: small, Parallelism: 3}},
	}

	spillDir := t.TempDir()
	plans, spilledSmall := 0, int64(0)
	sweep := func(seedLo, seedHi int64, rowsA, rowsB, trials int) {
		for seed := seedLo; seed < seedHi; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c, bases := testutil.TemporalCatalogSized(seed, rowsA, rowsB)
			ref := eval.New(c)
			for trial := 0; trial < trials; trial++ {
				plan := testutil.RandomPlan(rng, bases, 2+rng.Intn(2))
				want, errRef := ref.Eval(plan)
				for _, lg := range legs {
					opts := lg.opts
					opts.SpillDir = spillDir
					eng := exec.NewWith(c, opts)
					got, err := eng.Eval(plan)
					if (errRef == nil) != (err == nil) {
						recordFuzzFailure(t, "seed %d leg %s: engines disagree on failure for %s: reference=%v leg=%v",
							seed, lg.name, algebra.Canonical(plan), errRef, err)
					}
					if errRef != nil {
						continue
					}
					if !got.EqualAsList(want) {
						recordFuzzFailure(t, "seed %d leg %s: %s: result differs from reference (%d vs %d tuples)",
							seed, lg.name, algebra.Canonical(plan), got.Len(), want.Len())
					}
					if !got.Order().Equal(want.Order()) {
						recordFuzzFailure(t, "seed %d leg %s: %s: order %s ≠ reference %s",
							seed, lg.name, algebra.Canonical(plan), got.Order(), want.Order())
					}
					st := eng.Stats()
					if lg.opts.MemoryBudget == small {
						spilledSmall += st.SpilledOps
					}
					if st.SpilledOps > 0 && st.SpilledBytes == 0 {
						t.Fatalf("seed %d leg %s: spilled %d ops but recorded no bytes", seed, lg.name, st.SpilledOps)
					}
				}
				if errRef == nil {
					plans++
				}
			}
		}
	}
	scale := fuzzScale()
	sweep(0, 16*scale, 8, 6, 8)            // plan-shape coverage on the tiny catalogs
	sweep(1000, 1000+6*scale, 300, 200, 4) // sized catalogs: the small budget must spill

	if plans < 100 {
		t.Fatalf("five-way differential covered only %d plans, want ≥ 100", plans)
	}
	if spilledSmall == 0 {
		t.Fatalf("vacuous run: the %d-byte budget never spilled across %d plans", small, plans)
	}
	// The shared spill directory must be empty again: every Eval removes
	// its run directory on completion.
	entries, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("spill directory not empty after the suite: %v", entries)
	}
	t.Logf("five-way differential: %d plans, %d spilled ops under the %d-byte budget", plans, spilledSmall, small)
}

// sizedTemporal returns a temporal relation big enough to exceed small
// budgets, with value groups and overlaps that keep the temporal operators
// busy.
func sizedTemporal(rows int, seed int64) *relation.Relation {
	return datagen.Temporal(datagen.TemporalSpec{
		Rows: rows, Values: rows / 10, DupFrac: 0.2, AdjFrac: 0.3,
		TimeRange: 400, MaxPeriod: 20, Seed: seed,
	})
}

// TestSpillFileLifecycle pins the temp-file contract: a spilling query
// leaves the spill directory empty after Eval (files are consumed eagerly
// and the run directory is removed), and Close stays a safe no-op after.
func TestSpillFileLifecycle(t *testing.T) {
	dir := t.TempDir()
	r := sizedTemporal(3000, 21)
	src := eval.MapSource{"R": r}
	plan := algebra.NewCoal(algebra.NewTRdup(algebra.NewRel("R", r.Schema(), algebra.BaseInfo{})))

	eng := exec.NewWith(src, exec.Config{MemoryBudget: 32 << 10, SpillDir: dir})
	out, err := eng.Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.SpilledOps == 0 || st.SpilledBytes == 0 {
		t.Fatalf("expected spilling at a 32KB budget over %d rows, stats %+v", r.Len(), st)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("spill files leaked after a successful Eval: %v", names)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close after a clean Eval: %v", err)
	}
	want, err := exec.New(src).Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !out.EqualAsList(want) {
		t.Fatal("spilled result differs from the unbudgeted engine")
	}
}

// TestSpillLifecycleMidQueryError forces a runtime error after spilling
// has begun — rdupᵀ drains R ⊔ σ(R), and σ's division by zero surfaces only
// once the whole of R has been partitioned and spilled — and verifies the
// error propagates and no spill file or directory survives.
func TestSpillLifecycleMidQueryError(t *testing.T) {
	dir := t.TempDir()
	r := sizedTemporal(3000, 22)
	src := eval.MapSource{"R": r}
	plan := algebra.NewTRdup(algebra.NewUnionAll(algebra.NewRel("R", r.Schema(), algebra.BaseInfo{}), lateFault(t, r)))

	eng := exec.NewWith(src, exec.Config{MemoryBudget: 16 << 10, SpillDir: dir})
	if _, err := eng.Eval(plan); err == nil {
		t.Fatal("expected the division by zero to surface")
	}
	if st := eng.Stats(); st.SpillFiles == 0 {
		t.Fatalf("nothing spilled before the fault, stats %+v", st)
	}
	assertSpillDirEmpty(t, dir)
	if err := eng.Close(); err != nil {
		t.Fatalf("Close after a failed Eval: %v", err)
	}
}

// lateFault returns a σ over rel R whose predicate divides by zero at the
// first row of a Grp value that first occurs in the last quarter of r: the
// rows before it stream (and spill) fine, then the selection faults.
func lateFault(t *testing.T, r *relation.Relation) algebra.Node {
	t.Helper()
	gi := r.Schema().Index("Grp")
	seen := map[int64]bool{}
	for i := 0; i < r.Len(); i++ {
		v := r.At(i)[gi].AsInt()
		if i >= 3*r.Len()/4 && !seen[v] {
			div := expr.Arith{Op: expr.Div, L: expr.Literal(value.Int(1)),
				R: expr.Arith{Op: expr.Sub, L: expr.Column("Grp"), R: expr.Literal(value.Int(v))}}
			return algebra.NewSelect(expr.Compare(expr.Lt, div, expr.Literal(value.Int(1<<30))),
				algebra.NewRel("R", r.Schema(), algebra.BaseInfo{}))
		}
		seen[v] = true
	}
	t.Fatal("no late-first-occurrence Grp value in this dataset")
	return nil
}

// assertSpillDirEmpty fails when anything is left in a run's spill
// directory.
func assertSpillDirEmpty(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("spill state leaked after a mid-query error: %v", names)
	}
}

// TestPassReleasedWhenDiffTRightFaults faults a \ᵀ's right input after its
// left input has spilled into a pass file: the error surfaces, and the left
// pass — finished, its buckets never processed — leaves nothing behind, at
// Parallelism 1 and 4.
func TestPassReleasedWhenDiffTRightFaults(t *testing.T) {
	l := sizedTemporal(3000, 31)
	r := sizedTemporal(3000, 32)
	src := eval.MapSource{"L": l, "R": r}
	plan := algebra.NewTDiff(algebra.NewRel("L", l.Schema(), algebra.BaseInfo{}), lateFault(t, r))
	for _, par := range []int{1, 4} {
		dir := t.TempDir()
		eng := exec.NewWith(src, exec.Config{MemoryBudget: 32 << 10, Parallelism: par, SpillDir: dir})
		if _, err := eng.Eval(plan); err == nil {
			t.Fatalf("parallelism %d: expected the division by zero to surface", par)
		}
		if st := eng.Stats(); st.SpillFiles == 0 {
			t.Fatalf("parallelism %d: the left input never spilled, stats %+v", par, st)
		}
		assertSpillDirEmpty(t, dir)
	}
}

// TestPassReleasedWhenSortInputFaults faults a budgeted sort's input after
// its first 3,000 rows have arrived — at ~200 accounted bytes a row, a
// 64 KiB share starts spilling after ~300 rows and cuts runs of at most half
// the share, so a dozen runs are in the sort's pass by then: the error
// surfaces and the pass file goes, at Parallelism 1 and 4.
func TestPassReleasedWhenSortInputFaults(t *testing.T) {
	r := sizedTemporal(3000, 33)
	src := eval.MapSource{"R": r}
	in := algebra.NewUnionAll(algebra.NewRel("R", r.Schema(), algebra.BaseInfo{}), lateFault(t, r))
	plan := algebra.NewSort(relation.OrderSpec{relation.Key("Name")}, in)
	for _, par := range []int{1, 4} {
		dir := t.TempDir()
		eng := exec.NewWith(src, exec.Config{MemoryBudget: 64 << 10, Parallelism: par, SpillDir: dir})
		if _, err := eng.Eval(plan); err == nil {
			t.Fatalf("parallelism %d: expected the division by zero to surface", par)
		}
		if st := eng.Stats(); st.SpillFiles != 1 || st.SpilledOps != 1 || st.SpilledBytes < 64<<10/4 {
			t.Fatalf("parallelism %d: want one sort pass of several spilled runs, stats %+v", par, st)
		}
		assertSpillDirEmpty(t, dir)
	}
}

// TestStatsResetPerRun pins the per-run stats contract: a reused Engine
// reports the most recent Eval's counters only, for the merge family and
// the new spill counters alike.
func TestStatsResetPerRun(t *testing.T) {
	r := sizedTemporal(2000, 23)
	src := eval.MapSource{"R": r}
	base := algebra.NewRel("R", r.Schema(), algebra.BaseInfo{})
	spilling := algebra.NewTRdup(base)
	trivial := algebra.NewSelect(expr.TruePred{}, base)

	eng := exec.NewWith(src, exec.Config{MemoryBudget: 16 << 10, SpillDir: t.TempDir()})
	if _, err := eng.Eval(spilling); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.SpilledOps == 0 || st.SpilledBytes == 0 || st.PeakBytes == 0 {
		t.Fatalf("first run should spill and account, stats %+v", st)
	}
	if _, err := eng.Eval(trivial); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.SpilledOps != 0 || st.SpilledBytes != 0 {
		t.Fatalf("stats leaked across runs: %+v", st)
	}

	// The merge-family counters reset the same way.
	sortPlan := algebra.NewSort(relation.OrderSpec{relation.Key("Name")}, base)
	plain := exec.New(src)
	if _, err := plain.Eval(sortPlan); err != nil {
		t.Fatal(err)
	}
	if plain.Stats().MergeSorts != 1 {
		t.Fatalf("expected one merge sort, stats %+v", plain.Stats())
	}
	if _, err := plain.Eval(trivial); err != nil {
		t.Fatal(err)
	}
	if plain.Stats().MergeSorts != 0 {
		t.Fatalf("MergeSorts leaked across runs: %+v", plain.Stats())
	}
}

// TestBudgetedSortSpillStability pins the budget-driven run cutting: a
// sort whose input exceeds the share must spill its runs and still emit
// the exact stable sort — equal keys from different spilled runs keep
// their arrival order through the run-index tie-break.
func TestBudgetedSortSpillStability(t *testing.T) {
	r := datagen.Temporal(datagen.TemporalSpec{
		Rows: 10000, Values: 40, DupFrac: 0.3, AdjFrac: 0.2, TimeRange: 300, MaxPeriod: 15, Seed: 42,
	})
	src := eval.MapSource{"R": r}
	plan := algebra.NewSort(relation.OrderSpec{relation.Key("Name")},
		algebra.NewRel("R", r.Schema(), algebra.BaseInfo{}))
	want, err := eval.New(src).Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	eng := exec.NewWith(src, exec.Config{MemoryBudget: 64 << 10, SpillDir: t.TempDir()})
	got, err := eng.Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.MergeSorts != 1 || st.SpilledOps == 0 {
		t.Fatalf("expected one spilling external sort, stats %+v", st)
	}
	if !got.EqualAsList(want) {
		t.Fatal("budgeted external sort differs from the reference stable sort")
	}
}

// TestKeylessProductSpill pins the join with no key on every route: ×, ×ᵀ
// and a θ-join whose predicate is all residual have nothing to hash or
// grace-partition on, so sequentially and under Parallelism they run the
// hash join kernel over the one group of the empty key, and under a budget
// the build side spills to one file that each probe batch scans block by
// block. The probe side straddles the batch cut (2·vecBatchRows+3 rows) and
// the build side spans more than one spill block, so the spilled route's
// gather really interleaves blocks. Every configuration must reproduce the
// reference's left-major list and its Table 1 order annotation.
func TestKeylessProductSpill(t *testing.T) {
	byValue := relation.OrderSpec{relation.Key("Name"), relation.Key("Grp")}
	l, err := sizedTemporal(2*exec.VecBatchRows+3, 31).Sorted(byValue)
	if err != nil {
		t.Fatal(err)
	}
	r := sizedTemporal(300, 32) // spill blocks hold 256 rows
	src := eval.MapSource{"L": l, "R": r}
	left := algebra.NewRel("L", l.Schema(), algebra.BaseInfo{Order: byValue})
	right := algebra.NewRel("R", r.Schema(), algebra.BaseInfo{})
	// The conventional shapes pair every probe row with every build row, so
	// they run over the grouping column alone: 600k two-column pairs.
	grp := func(n algebra.Node) algebra.Node { return algebra.NewProjectCols(n, "Grp") }
	plans := []struct {
		name string
		node algebra.Node
	}{
		{"product", algebra.NewProduct(grp(left), grp(right))},
		{"tproduct", algebra.NewTProduct(left, right)},
		{"theta-join", algebra.NewJoin(expr.Compare(expr.Lt, expr.Column("1.Grp"), expr.Column("2.Grp")), grp(left), grp(right))},
	}
	configs := []exec.Config{
		{},
		{Parallelism: 3},
		{MemoryBudget: 4 << 10},
		{MemoryBudget: 4 << 10, Parallelism: 3},
	}
	for _, p := range plans {
		want, err := eval.New(src).Eval(p.node)
		if err != nil {
			t.Fatal(err)
		}
		if want.Len() == 0 {
			t.Fatalf("%s: vacuous plan, the reference result is empty", p.name)
		}
		for _, cfg := range configs {
			cfg.SpillDir = t.TempDir()
			eng := exec.NewWith(src, cfg)
			got, err := eng.Eval(p.node)
			if err != nil {
				t.Fatalf("%s %+v: %v", p.name, cfg, err)
			}
			st := eng.Stats()
			if (st.SpilledOps > 0) != (cfg.MemoryBudget > 0) {
				t.Fatalf("%s %+v: the build side must spill exactly under the budget: %+v", p.name, cfg, st)
			}
			if (st.ParallelOps > 0) != (cfg.Parallelism > 1) {
				t.Fatalf("%s %+v: the probe side must fan out exactly under Parallelism: %+v", p.name, cfg, st)
			}
			if !got.EqualAsList(want) {
				t.Fatalf("%s %+v: result differs from the reference (%d vs %d rows)", p.name, cfg, got.Len(), want.Len())
			}
			if !got.Order().Equal(want.Order()) {
				t.Fatalf("%s %+v: order %s ≠ reference %s", p.name, cfg, got.Order(), want.Order())
			}
		}
	}
}

// TestKeylessProductSpillStreams pins the memory contract of the spilled
// keyless product: a 2,000 × 2,000 ×ᵀ whose build side overflows a 64 KiB
// budget, pulled through a selective σ, hands its output on batch by batch —
// the accounted peak is the drained build side and then one decoded block,
// never the product — and leaves the spill directory empty.
func TestKeylessProductSpillStreams(t *testing.T) {
	const budget = 64 << 10
	dir := t.TempDir()
	l, r := sizedTemporal(2000, 34), sizedTemporal(2000, 35)
	src := eval.MapSource{"L": l, "R": r}
	plan := algebra.NewSelect(
		expr.Compare(expr.Eq, expr.Column("1.Grp"), expr.Column("2.Grp")),
		algebra.NewTProduct(
			algebra.NewRel("L", l.Schema(), algebra.BaseInfo{}),
			algebra.NewRel("R", r.Schema(), algebra.BaseInfo{})))
	eng := exec.NewWith(src, exec.Config{MemoryBudget: budget, SpillDir: dir})
	got, err := eng.Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.SpilledOps == 0 || st.SpilledBytes == 0 {
		t.Fatalf("expected the keyless product's build side to spill, stats %+v", st)
	}
	if st.PeakBytes > budget+1<<10 {
		t.Fatalf("accounted peak %d exceeds the %d budget beyond drain overshoot", st.PeakBytes, budget)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("spill directory not empty after Close: %v", entries)
	}
	want, err := exec.New(src).Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 || !got.EqualAsList(want) {
		t.Fatalf("spilled keyless ×ᵀ under σ differs from the unbudgeted engine (%d vs %d rows)", got.Len(), want.Len())
	}
}

// TestBudgetPrefersStreamingMerge: when the delivered order proves groups
// contiguous, the budgeted engine keeps the bounded group-at-a-time
// streaming variant — no partitioning, no spilling, however small the
// budget.
func TestBudgetPrefersStreamingMerge(t *testing.T) {
	byValue := relation.OrderSpec{relation.Key("Name"), relation.Key("Grp")}
	r, err := sizedTemporal(3000, 33).Sorted(byValue)
	if err != nil {
		t.Fatal(err)
	}
	src := eval.MapSource{"R": r}
	plan := algebra.NewCoal(algebra.NewRel("R", r.Schema(), algebra.BaseInfo{Order: byValue}))
	eng := exec.NewWith(src, exec.Config{MemoryBudget: 16 << 10, SpillDir: t.TempDir()})
	got, err := eng.Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.SpilledOps != 0 {
		t.Fatalf("sorted input must stream group-at-a-time, not spill: %+v", st)
	}
	if st.MergeOps == 0 {
		t.Fatalf("expected the streaming merge variant to compile: %+v", st)
	}
	want, err := eval.New(src).Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsList(want) {
		t.Fatal("streaming budgeted coalescing differs from the reference")
	}
}

// TestMillionRowPipelineUnderBudget is the scale acceptance: a 1M-row
// rdupᵀ → coalᵀ pipeline completes under a 16MB budget, spilling both
// operators, with the accounted peak held to the budget (one tuple of
// drain overshoot allowed) — and the result matches the unbudgeted engine
// bit for bit.
func TestMillionRowPipelineUnderBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row pipeline skipped in -short mode")
	}
	if exec.RaceEnabled {
		t.Skip("1M-row pipeline skipped under the race detector (covered at smaller scales)")
	}
	const budget = 16 << 20
	r := datagen.Temporal(datagen.TemporalSpec{
		Rows: 1000000, Values: 20000, TimeRange: 500, MaxPeriod: 25, Seed: 9,
	})
	src := eval.MapSource{"R": r}
	plan := algebra.NewCoal(algebra.NewTRdup(algebra.NewRel("R", r.Schema(), algebra.BaseInfo{})))

	eng := exec.NewWith(src, exec.Config{MemoryBudget: budget, SpillDir: t.TempDir()})
	got, err := eng.Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.SpilledOps < 2 {
		t.Fatalf("both rdupᵀ and coalᵀ should spill at 16MB over 1M rows, stats %+v", st)
	}
	if st.PeakBytes > budget+1<<10 {
		t.Fatalf("accounted peak %d exceeds the %d budget beyond drain overshoot", st.PeakBytes, budget)
	}
	want, err := exec.New(src).Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsList(want) {
		t.Fatal("1M-row budgeted pipeline differs from the unbudgeted engine")
	}
	t.Logf("1M rows under 16MB: %d spilled ops, %d spilled bytes, peak %d", st.SpilledOps, st.SpilledBytes, st.PeakBytes)
}

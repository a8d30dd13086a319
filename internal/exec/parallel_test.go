package exec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/datagen"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/expr"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/testutil"
	"tqp/internal/value"
)

// TestDifferentialFourWay is the parallel engine's correctness anchor: it
// drives random conventional+temporal plans through four paths — the
// reference evaluator, the sequential merge engine, the morsel-parallel
// engine, and the morsel-parallel engine under a budget it never exhausts
// (where one-sided grouping over contiguous groups streams ahead of the
// driver instead of range-exchanging) — at parallelism 1, 2 and 8, and
// asserts bit-identical result lists and Table 1 order annotations across
// all of them. Run under -race in CI, this is also the determinism proof:
// any scheduling-dependent gather would diverge from the reference list.
// The suite is vacuity-guarded: the parallel engine must report compiled
// exchanges, or the parallel paths were never exercised.
func TestDifferentialFourWay(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			plans, exchanges := 0, 0
			spillDir := t.TempDir()
			for seed := int64(200); seed < 230; seed++ {
				rng := rand.New(rand.NewSource(seed))
				c, bases := testutil.TemporalCatalog(seed)
				ref := eval.New(c)
				for trial := 0; trial < 6; trial++ {
					plan := testutil.RandomPlan(rng, bases, 2+rng.Intn(2))
					want, errRef := ref.Eval(plan)
					for _, eng := range []struct {
						name string
						e    *exec.Engine
					}{
						{"exec-merge", exec.New(c)},
						{"exec-parallel", exec.NewWith(c, exec.Config{Parallelism: par})},
						{"exec-parallel-budgeted", exec.NewWith(c, exec.Config{Parallelism: par, MemoryBudget: 1 << 40, SpillDir: spillDir})},
					} {
						got, err := eng.e.Eval(plan)
						if (errRef == nil) != (err == nil) {
							t.Fatalf("seed %d: %s disagrees on failure for %s: reference=%v engine=%v",
								seed, eng.name, algebra.Canonical(plan), errRef, err)
						}
						if errRef != nil {
							continue
						}
						if !got.EqualAsList(want) {
							t.Fatalf("seed %d: %s: %s result differs from reference\nengine (%d tuples):\n%s\nreference (%d tuples):\n%s",
								seed, algebra.Canonical(plan), eng.name, got.Len(), got, want.Len(), want)
						}
						if !got.Order().Equal(want.Order()) {
							t.Fatalf("seed %d: %s: %s order %s ≠ reference order %s",
								seed, algebra.Canonical(plan), eng.name, got.Order(), want.Order())
						}
						if eng.name == "exec-parallel" {
							exchanges += eng.e.Stats().ParallelOps
						}
					}
					if errRef == nil {
						plans++
					}
				}
			}
			if plans < 100 {
				t.Fatalf("four-way differential covered only %d plans, want ≥ 100", plans)
			}
			if par > 1 && exchanges == 0 {
				t.Fatal("vacuous run: the parallel engine never compiled an exchange")
			}
		})
	}
}

// TestParallelPipelineLarge pins the parallel engine against the sequential
// merge engine on the heavy acceptance pipeline — equijoin ⋈ᵀ, rdupᵀ,
// coalᵀ, top-level sort — at a scale where every exchange carries multiple
// morsels, including partition counts in the Stats record.
func TestParallelPipelineLarge(t *testing.T) {
	l := datagen.Temporal(datagen.TemporalSpec{
		Rows: 12000, Values: 700, TimeRange: 400, MaxPeriod: 20, Seed: 31})
	r := datagen.Temporal(datagen.TemporalSpec{
		Rows: 256, Values: 700, TimeRange: 400, MaxPeriod: 20, Seed: 32})
	src := eval.MapSource{"L": l, "R": r}
	ln := algebra.NewRel("L", l.Schema(), algebra.BaseInfo{})
	rn := algebra.NewRel("R", r.Schema(), algebra.BaseInfo{})
	pred := expr.Compare(expr.Eq, expr.Column("1.Grp"), expr.Column("2.Grp"))
	plan := algebra.NewSort(relation.OrderSpec{relation.Key("1.Name")},
		algebra.NewCoal(algebra.NewTRdup(algebra.NewTJoin(pred, ln, rn))))

	want, err := exec.New(src).Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 8} {
		eng := exec.NewWith(src, exec.Config{Parallelism: par})
		got, err := eng.Eval(plan)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsList(want) {
			t.Fatalf("parallelism %d: result differs from the sequential engine (%d vs %d tuples)",
				par, got.Len(), want.Len())
		}
		st := eng.Stats()
		if st.ParallelOps < 4 {
			t.Fatalf("parallelism %d: expected ≥4 exchanges (join, rdupT, coalT, sort), got %d", par, st.ParallelOps)
		}
		if st.Partitions != st.ParallelOps*par {
			t.Fatalf("parallelism %d: partition counter %d ≠ %d exchanges × %d workers",
				par, st.Partitions, st.ParallelOps, par)
		}
	}
}

// TestParallelSortStable verifies the parallel run-generation sort is the
// stable sort: duplicate keys keep their input sequence across run
// boundaries (run-index tie-break in the gather heap).
func TestParallelSortStable(t *testing.T) {
	// 3 full runs of equal keys: instability would interleave run suffixes.
	rows := 3 * 4096
	r := datagen.Temporal(datagen.TemporalSpec{
		Rows: rows, Values: 5, DupFrac: 0.5, TimeRange: 50, MaxPeriod: 10, Seed: 9})
	src := eval.MapSource{"R": r}
	plan := algebra.NewSort(relation.OrderSpec{relation.Key("Grp")},
		algebra.NewRel("R", r.Schema(), algebra.BaseInfo{}))
	want, err := eval.New(src).Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.NewWith(src, exec.Config{Parallelism: 4}).Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsList(want) {
		t.Fatal("parallel sort is not the stable sort of the input")
	}
}

// TestSortTiesKeepArrivalOrder pins the sort's stability by construction:
// over 10,000 rows whose keys are all equal, or take 3 distinct values, the
// output permutation must be the stable one — keys ascending, arrival
// order among equal keys — sequentially (one whole-batch sort), at
// Parallelism 4 (index runs merged on the run index), under a 64 KiB
// budget (spilled runs of the external sort) and under a budget at
// Parallelism 4, fitting it or spilling.
func TestSortTiesKeepArrivalOrder(t *testing.T) {
	s := schema.MustNew(schema.Attr("K", value.KindInt), schema.Attr("Pos", value.KindInt))
	const rows = 10000
	rng := rand.New(rand.NewSource(5))
	for _, distinct := range []int{1, 3} {
		ts := make([]relation.Tuple, rows)
		var want []int64 // the stable order's Pos column
		for i := range ts {
			ts[i] = relation.Tuple{value.Int(int64(rng.Intn(distinct))), value.Int(int64(i))}
		}
		for k := 0; k < distinct; k++ {
			for i, tu := range ts {
				if tu[0].AsInt() == int64(k) {
					want = append(want, int64(i))
				}
			}
		}
		src := eval.MapSource{"R": relation.FromTuplesTrusted(s, ts)}
		plan := algebra.NewSort(relation.OrderSpec{relation.Key("K")}, algebra.NewRel("R", s, algebra.BaseInfo{}))
		for _, cfg := range []exec.Config{
			{}, {Parallelism: 4}, {MemoryBudget: 64 << 10, SpillDir: t.TempDir()},
			// Budgeted under Parallelism: resident (sorted once, in index runs
			// across the pool) and spilled.
			{Parallelism: 4, MemoryBudget: 1 << 30}, {Parallelism: 4, MemoryBudget: 64 << 10, SpillDir: t.TempDir()},
		} {
			eng := exec.NewWith(src, cfg)
			got, err := eng.Eval(plan)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.MemoryBudget == 64<<10 && eng.Stats().SpilledOps == 0 {
				t.Fatalf("%d keys, %+v: the external sort never spilled", distinct, cfg)
			}
			if got.Len() != rows {
				t.Fatalf("%d keys, %+v: %d rows, want %d", distinct, cfg, got.Len(), rows)
			}
			for k := range want {
				if pos := got.At(k)[1].AsInt(); pos != want[k] {
					t.Fatalf("%d keys, %+v: output row %d is input row %d, the stable order has %d", distinct, cfg, k, pos, want[k])
				}
			}
		}
	}
}

// TestParallelRangeExchange verifies the range-shaped exchange: over inputs
// whose delivered order proves groups contiguous, the parallel engine still
// produces the sequential group-at-a-time output (segments aligned with
// group boundaries concatenate in order).
func TestParallelRangeExchange(t *testing.T) {
	byNameGrp := relation.OrderSpec{relation.Key("Name"), relation.Key("Grp")}
	r, err := datagen.Temporal(datagen.TemporalSpec{
		Rows: 9000, Values: 400, DupFrac: 0.2, AdjFrac: 0.3, TimeRange: 300, MaxPeriod: 15, Seed: 13}).Sorted(byNameGrp)
	if err != nil {
		t.Fatal(err)
	}
	src := eval.MapSource{"R": r}
	base := algebra.NewRel("R", r.Schema(), algebra.BaseInfo{Order: byNameGrp})
	for _, plan := range []algebra.Node{
		algebra.NewTRdup(base),
		algebra.NewCoal(base),
		algebra.NewRdup(algebra.NewSort(relation.OrderSpec{
			relation.Key("Name"), relation.Key("Grp"), relation.Key("T1"), relation.Key("T2")}, base)),
	} {
		want, err := eval.New(src).Eval(plan)
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec.NewWith(src, exec.Config{Parallelism: 6}).Eval(plan)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsList(want) {
			t.Fatalf("%s: range-exchange result differs from reference", algebra.Canonical(plan))
		}
	}
}

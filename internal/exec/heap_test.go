package exec_test

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/datagen"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/obs"
	"tqp/internal/physical"
	"tqp/internal/relation"
	"tqp/internal/testutil"
)

// heapSampler keeps the peak of the heap's object bytes, read once per
// batch through the engine's test probe.
type heapSampler struct {
	mu   sync.Mutex
	s    []metrics.Sample
	peak uint64
}

func (h *heapSampler) read() {
	h.mu.Lock()
	metrics.Read(h.s)
	h.peak = max(h.peak, h.s[0].Value.Uint64())
	h.mu.Unlock()
}

// exemptBytes prices what a run of plan holds that the budget exempts: the
// output list of every operator — the streams between operators and the
// result — at the plane bytes the unbudgeted engine materializes them in.
func exemptBytes(t *testing.T, src eval.Source, plan algebra.Node) int64 {
	t.Helper()
	var n int64
	algebra.Walk(plan, func(sub algebra.Node, _ algebra.Path) bool {
		if len(sub.Children()) == 0 {
			return true // a base relation is part of the starting heap
		}
		r, err := exec.New(src).Eval(sub)
		if err != nil {
			t.Fatal(err)
		}
		n += r.Columns().Bytes(0, r.Len())
		return true
	})
	return n
}

// heapAbove evaluates plan on eng, observed so that every batch passes the
// probe, and returns the result and the peak heap object bytes above the
// heap right after a full collection before the run.
func heapAbove(t *testing.T, eng *exec.Engine, plan algebra.Node) (*relation.Relation, int64) {
	t.Helper()
	h := &heapSampler{s: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
	eng.ObserveNodes(false, func(algebra.Node, physical.Variant, obs.RunSample) {})
	runtime.GC()
	h.read()
	base := h.peak
	exec.SetHeapProbe(h.read)
	defer exec.SetHeapProbe(nil)
	got, err := eng.Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	return got, int64(h.peak) - int64(base)
}

// heapMultiple is how many budgets of heap a budgeted run may hold beyond
// its starting heap and what the budget exempts (exemptBytes) at any
// sampled batch. The accounted working set is at most one budget; the rest
// is what the planes hold beyond their price — capacity slack of operator
// outputs and partition batches, sequence keys and row lists, hash and sort
// scratch, spill buffers, partitions pinned by their outputs until the
// gather — and the garbage a collection at 5% growth has not yet freed. On
// linux/amd64 (2 vCPUs) the runs below peaked at 16.7× (five-way plans) and
// 5.5× (pipeline) when rows were priced as tuples and a drain that crossed
// its share spilled everything; priced by plane bytes with the hybrid drain
// they peak at 3.4× and 2.7–5.0× (the pipeline's figure depends on where
// the collector's cycles fall).
const heapMultiple = 8

// budgetHeap runs plan under cfg with the heap sampled once per batch and
// returns how many budgets the peak held beyond the starting heap and the
// exempt outputs; the result must be the unbudgeted engine's.
func budgetHeap(t *testing.T, src eval.Source, plan algebra.Node, cfg exec.Config) (float64, exec.Stats) {
	t.Helper()
	want, err := exec.New(src).Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	exempt := exemptBytes(t, src, plan)
	cfg.SpillDir = t.TempDir()
	eng := exec.NewWith(src, cfg)
	// A collection at a twentieth of growth keeps the sampled object bytes
	// close to the live heap.
	defer debug.SetGCPercent(debug.SetGCPercent(5))
	got, above := heapAbove(t, eng, plan)
	if !got.EqualAsList(want) {
		t.Fatalf("%s: the budgeted result differs from the unbudgeted engine's", algebra.Canonical(plan))
	}
	return float64(above-exempt) / float64(cfg.MemoryBudget), eng.Stats()
}

// TestBudgetBoundsHeap checks the memory budget against the real heap, not
// its own accounting: on the budgeted differential's largest cases — the
// sized catalogs of TestDifferentialFiveWay under its 64 KiB budget at
// Parallelism 3, the leg that spills them — and on the 1M-row rdupᵀ → coalᵀ
// pipeline under 16 MiB, the heap object bytes sampled once per batch stay
// within heapMultiple budgets above the starting heap plus the exempt
// operator outputs.
func TestBudgetBoundsHeap(t *testing.T) {
	if exec.RaceEnabled {
		t.Skip("heap sampling skipped under the race detector, whose shadow memory it would count")
	}
	t.Run("five-way-sized", func(t *testing.T) {
		worst, spilled := 0.0, int64(0)
		for seed := int64(1000); seed < 1006; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c, bases := testutil.TemporalCatalogSized(seed, 300, 200)
			for trial := 0; trial < 4; trial++ {
				plan := testutil.RandomPlan(rng, bases, 2+rng.Intn(2))
				if _, err := eval.New(c).Eval(plan); err != nil {
					continue
				}
				x, st := budgetHeap(t, c, plan, exec.Config{MemoryBudget: 64 << 10, Parallelism: 3})
				spilled += st.SpilledOps
				worst = max(worst, x)
			}
		}
		if spilled == 0 {
			t.Fatal("vacuous run: nothing spilled")
		}
		t.Logf("peak heap beyond start and outputs: %.2f× the budget", worst)
		if worst > heapMultiple {
			t.Fatalf("peak heap beyond start and outputs is %.2f× the budget, want ≤ %d×", worst, heapMultiple)
		}
	})
	t.Run("million-rows", func(t *testing.T) {
		if testing.Short() {
			t.Skip("1M-row pipeline skipped in -short mode")
		}
		r := datagen.Temporal(datagen.TemporalSpec{
			Rows: 1000000, Values: 20000, TimeRange: 500, MaxPeriod: 25, Seed: 9,
		})
		src := eval.MapSource{"R": r}
		plan := algebra.NewCoal(algebra.NewTRdup(algebra.NewRel("R", r.Schema(), algebra.BaseInfo{})))
		x, st := budgetHeap(t, src, plan, exec.Config{MemoryBudget: 16 << 20})
		if st.SpilledOps < 2 {
			t.Fatalf("both operators should spill: %+v", st)
		}
		t.Logf("peak heap beyond start and outputs: %.2f× the budget", x)
		if x > heapMultiple {
			t.Fatalf("peak heap beyond start and outputs is %.2f× the budget, want ≤ %d×", x, heapMultiple)
		}
	})
}

package exec

import (
	"os"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/column"
	"tqp/internal/datagen"
	"tqp/internal/eval"
	"tqp/internal/physical"
	"tqp/internal/relation"
	"tqp/internal/spill"
)

// chunkIter presents a batch as consecutive range views of step rows.
type chunkIter struct {
	b        *column.Batch
	lo, step int
}

func (c *chunkIter) nextBatch() (*column.Batch, error) {
	if c.lo >= c.b.N {
		return nil, nil
	}
	hi := min(c.lo+c.step, c.b.N)
	v := c.b.RangeView(c.lo, hi)
	c.lo = hi
	return v, nil
}

func (c *chunkIter) close() error { return nil }

// TestHybridDrainPartlyResident: an input that crosses its drain share by
// half ends the hybrid drain with some hash buckets resident and the rest
// spilled, and the operators over such a drain — rdupᵀ one-sided, \ᵀ with
// either side the one that crosses — return the unbudgeted engine's list
// bit for bit, sequentially and at Parallelism 3, leaving the spill
// directory empty.
func TestHybridDrainPartlyResident(t *testing.T) {
	big := datagen.Temporal(datagen.TemporalSpec{Rows: 3000, Values: 300, DupFrac: 0.2, AdjFrac: 0.3, TimeRange: 400, MaxPeriod: 20, Seed: 41})
	small := datagen.Temporal(datagen.TemporalSpec{Rows: 1200, Values: 300, DupFrac: 0.2, AdjFrac: 0.3, TimeRange: 400, MaxPeriod: 20, Seed: 42})
	src := eval.MapSource{"B": big, "S": small}
	rel := func(name string, r *relation.Relation) algebra.Node {
		return algebra.NewRel(name, r.Schema(), algebra.BaseInfo{})
	}
	bb := big.Columns()
	// The big input's drain share is two thirds of its bytes.
	share := bb.Bytes(0, bb.Rows()) * 2 / 3
	idx := physical.ValueIdx(big.Schema())
	for _, tc := range []struct {
		name  string
		plan  algebra.Node
		sides int64
	}{
		{"rdupT", algebra.NewTRdup(rel("B", big)), 1},
		{"diffT-left-crosses", algebra.NewTDiff(rel("B", big), rel("S", small)), 2},
		{"diffT-right-crosses", algebra.NewTDiff(rel("S", small), rel("B", big)), 2},
	} {
		for _, par := range []int{1, 3} {
			cfg := Config{MemoryBudget: share * tc.sides * int64(par), Parallelism: par, SpillDir: t.TempDir()}

			// The drain of the big input ends partly resident, partly on disk.
			e := NewWith(src, cfg)
			e.mem, e.spillMgr = &arbiter{}, spill.NewManager(cfg.SpillDir)
			in := vecSource(&chunkIter{b: bb, step: vecBatchRows}, big.Schema())
			side, err := e.drainGraceVec(in, idx, e.opShare()/tc.sides)
			if err != nil {
				t.Fatal(err)
			}
			resident, spilled := 0, 0
			for _, ps := range side.parts {
				if ps.file != nil {
					spilled++
				} else if ps.count > 0 {
					resident++
				}
			}
			if !side.spilled || resident == 0 || spilled == 0 {
				t.Fatalf("%s par %d: drain ended with %d resident and %d spilled buckets, want both", tc.name, par, resident, spilled)
			}
			if used := e.mem.used.Load(); used > e.opShare()/tc.sides {
				t.Fatalf("%s par %d: %d resident bytes exceed the %d share", tc.name, par, used, e.opShare()/tc.sides)
			}
			if err := e.spillMgr.Cleanup(); err != nil {
				t.Fatal(err)
			}

			// The operator over it returns the unbudgeted list.
			e = NewWith(src, cfg)
			got, err := e.Eval(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			if e.Stats().SpilledOps != 1 {
				t.Fatalf("%s par %d: want the operator to spill, stats %+v", tc.name, par, e.Stats())
			}
			want, err := New(src).Eval(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			if !got.EqualAsList(want) {
				t.Fatalf("%s par %d: the hybrid result differs from the unbudgeted engine's", tc.name, par)
			}
			if names, err := os.ReadDir(cfg.SpillDir); err != nil || len(names) != 0 {
				t.Fatalf("%s par %d: spill directory after the run: %v (%v)", tc.name, par, names, err)
			}
		}
	}
}

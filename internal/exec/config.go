package exec

import (
	"fmt"

	"tqp/internal/eval"
)

// Config is the one engine-configuration surface: every knob of the exec
// engine in a single struct, consumed by NewSpec (for planning and the
// stratum) and NewWith (for a bare engine). The zero value is the
// fully-enabled sequential engine ("exec"). No field selects between two
// implementations of one algorithm: Parallelism and MemoryBudget size the
// run, NoMerge and NoSortElision restrict which algorithms may compile.
type Config struct {
	// Parallelism is the number of workers a partitionable operator may fan
	// out to: the exchange driver (grace.go) hash- or range-partitions the
	// input of every keyed blocking operator (rdup, \, ∪, the temporal
	// value-group family, aggregation), join and product split their probe
	// side, sort parallelizes run generation, and a deterministic gather
	// keeps every result list bit-identical to the sequential engine's.
	// 0 or 1 compiles the sequential pipeline.
	Parallelism int
	// MemoryBudget bounds the working-set bytes of the blocking operators
	// (hash tables, materialized build sides, sort runs; see grace.go). An
	// operator whose state would exceed its share grace-hash partitions its
	// inputs to temp files and processes one partition at a time, recursing
	// while a partition still exceeds the share; the spilled partitions
	// replay in original list order via sequence keys, so results stay
	// bit-identical to the unbudgeted engine. 0 means unlimited (no
	// spilling). With Parallelism > 1 the budget divides into per-worker
	// shares: W partition tasks run concurrently, each bounded by budget/W.
	MemoryBudget int64
	// SpillDir is the directory spill files are created under (a fresh
	// subdirectory per Eval, removed when the run ends — success or error).
	// Empty means the system temp directory.
	SpillDir string
	// NoMerge disables the merge/sort-based variants (merge join, merge
	// diff/union, adjacent-compare dedup, streaming group-at-a-time
	// temporal operators); every operator uses its hash variant.
	NoMerge bool
	// NoSortElision forces every sort node to physically sort, even when
	// its input already delivers the requested order.
	NoSortElision bool
}

// NewSpec derives an immutable engine spec from a Config, named
// consistently across the whole surface: "exec", "exec-hash", "exec-par4",
// "exec-par4-mem16M", …. It is the one constructor: a session's engine
// settings plus the admission controller's resource shares (and the
// server's spill directory) become one spec, instantiated per query via
// eval.EngineSpec.Instantiate.
// The restriction flags (NoMerge, NoSortElision) are reflected in OrderAware
// so the cost model never prices variants the engine won't compile.
func NewSpec(cfg Config) eval.EngineSpec {
	if cfg.Parallelism < 1 {
		cfg.Parallelism = 1
	}
	name := "exec"
	if cfg.NoMerge || cfg.NoSortElision {
		name = "exec-hash"
	}
	if cfg.Parallelism > 1 {
		name += fmt.Sprintf("-par%d", cfg.Parallelism)
	}
	if cfg.MemoryBudget > 0 {
		name += "-mem" + memString(cfg.MemoryBudget)
	}
	return eval.EngineSpec{
		Name:         name,
		New:          func(src eval.Source) eval.Engine { return NewWith(src, cfg) },
		Streaming:    true,
		OrderAware:   !cfg.NoMerge && !cfg.NoSortElision,
		Parallelism:  cfg.Parallelism,
		MemoryBudget: cfg.MemoryBudget,
	}
}

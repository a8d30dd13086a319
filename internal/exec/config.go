package exec

import (
	"fmt"

	"tqp/internal/eval"
)

// Config is the one engine-configuration surface: every knob of the exec
// engine in a single struct, consumed by NewSpec (for planning and the
// stratum) and NewWith (for a bare engine). The zero value is the
// sequential engine ("exec"). No field selects between two implementations
// of one algorithm: Parallelism and MemoryBudget size the run, and with the
// delivered orders the engine observes they are all package physical's
// Decide reads to choose each operator's variant.
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
	// (hash tables, materialized build sides, sort runs; see grace.go),
	// priced by what their rows hold on the column planes
	// (column.Batch.Bytes). An operator whose state would exceed its share
	// hash-partitions its inputs, keeps the partitions that fit the share in
	// memory and writes the rest to temp files (hybrid hash), processes the
	// partitions one at a time and recurses while a spilled partition still
	// exceeds the share; the partitions replay in original list order via
	// sequence keys, so results stay bit-identical to the unbudgeted engine.
	// 0 means unlimited (no spilling). With Parallelism > 1 the budget
	// divides into per-worker shares: W partition tasks run concurrently,
	// each bounded by budget/W.
	MemoryBudget int64
	// SpillDir is the directory spill files are created in: one temp file
	// per spill pass, removed when the pass is consumed and in any case
	// when the run ends — success or error. Empty means the system temp
	// directory.
	SpillDir string
}

// NewSpec derives an immutable engine spec from a Config, named
// consistently across the whole surface: "exec", "exec-par4",
// "exec-par4-mem16M", …. It is the one constructor: a session's engine
// settings plus the admission controller's resource shares (and the
// server's spill directory) become one spec, instantiated per query via
// eval.EngineSpec.Instantiate.
func NewSpec(cfg Config) eval.EngineSpec {
	if cfg.Parallelism < 1 {
		cfg.Parallelism = 1
	}
	name := "exec"
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
		Parallelism:  cfg.Parallelism,
		MemoryBudget: cfg.MemoryBudget,
	}
}

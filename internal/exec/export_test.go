package exec

// VecBatchRows exposes the batch row target to the external test package,
// whose boundary cases are sized from it.
const VecBatchRows = vecBatchRows

// StageCount reports how many counting stages the engine's most recent Eval
// compiled: zero for a run nobody observes.
func StageCount(e *Engine) int { return len(e.stages) }

// RaceEnabled reports a race-instrumented test binary to the external test
// package.
const RaceEnabled = raceEnabled

// SetHeapProbe installs (or, with nil, removes) the function an observed run
// calls once per batch and once per driver partition.
func SetHeapProbe(f func()) { heapProbe = f }

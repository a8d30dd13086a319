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

// tdiffBody and tunionBody are \ᵀ's sweep and ∪ᵀ's body over a left whose
// value groups are not known to be contiguous.
func tdiffBody(vidx []int, t1, t2 int) partBody  { return sweepDiffBody(vidx, t1, t2, false) }
func tunionBody(vidx []int, t1, t2 int) partBody { return excessBody(vidx, t1, t2, false) }

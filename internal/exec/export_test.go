package exec

// VecBatchRows exposes the batch row target to the external test package,
// whose boundary cases are sized from it.
const VecBatchRows = vecBatchRows

// StageCount reports how many counting stages the engine's most recent Eval
// compiled: zero for a run nobody observes.
func StageCount(e *Engine) int { return len(e.stages) }

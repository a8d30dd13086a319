package exec

// VecBatchRows exposes the batch row target to the external test package,
// whose boundary cases are sized from it.
const VecBatchRows = vecBatchRows

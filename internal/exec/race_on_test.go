//go:build race

package exec

// raceEnabled reports a race-instrumented test binary; the heaviest scale
// tests skip under it (their logic is covered at smaller scales).
const raceEnabled = true

//go:build !race

package exec

// raceEnabled reports a race-instrumented test binary.
const raceEnabled = false

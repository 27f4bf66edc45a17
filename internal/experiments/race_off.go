//go:build !race

package experiments

// raceEnabled reports whether the race detector is compiled in; the
// golden test then renders the report once instead of twice, since a
// pass is an order of magnitude slower under instrumentation.
const raceEnabled = false

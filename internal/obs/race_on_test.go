//go:build race

package obs_test

// raceEnabled reports whether the race detector is compiled in.
// Allocation-count pins skip under -race: the instrumentation adds its
// own allocations.
const raceEnabled = true

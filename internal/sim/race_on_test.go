//go:build race

package sim

// raceEnabled reports whether the race detector is compiled in.
// Allocation-count pins skip under -race: the instrumentation adds its
// own allocations.
const raceEnabled = true

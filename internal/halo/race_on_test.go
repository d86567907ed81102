//go:build race

package halo

// raceEnabled reports whether the race detector is compiled in. The
// rank stack budget test skips under -race: instrumentation changes
// every frame size, so the budget it pins holds for normal builds only.
const raceEnabled = true

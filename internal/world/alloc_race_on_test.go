//go:build race

package world

// raceEnabled reports whether the race detector is compiled in; the
// allocation gate skips under -race because instrumentation changes
// allocation counts.
const raceEnabled = true

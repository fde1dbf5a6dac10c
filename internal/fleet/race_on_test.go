//go:build race

package fleet

// raceEnabled reports whether the race detector is compiled in. The heap
// gate and the whole-body transcript test skip under -race: instrumentation
// changes heap accounting, and shadows a 64 MiB body many times over.
const raceEnabled = true

//go:build race

package secidx

// raceEnabled reports whether the race detector is active; its
// instrumentation changes what allocates, so the allocation pins only run
// without it.
const raceEnabled = true

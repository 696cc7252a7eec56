//go:build race

package shard

// raceEnabled reports whether the race detector is active; its
// instrumentation adds allocations, so the absolute allocation-regression
// assertions only run without it.
const raceEnabled = true

//go:build !race

package secidx

// raceEnabled: see race_on_test.go.
const raceEnabled = false

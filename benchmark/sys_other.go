//go:build !unix

package main

// Without statfs, getrusage and /proc the run goes on; the figures that
// need them read 0 or "unknown".

func freeBytes(string) (uint64, bool) { return 0, false }
func fsType(string) string            { return "unknown" }
func cpuSeconds() float64             { return 0 }
func kernelRelease() string           { return "unknown" }
func peakRSSMB() float64              { return 0 }

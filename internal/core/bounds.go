package core

import (
	"math"

	"repro/internal/entropy"
)

// Theorem 2's two bounds at constant 1, the yardsticks the conformance test
// holds the static index to: the ratio of what an index reads or stores to
// these is the constant the theorem's O hides, measured.

// QueryBitsBound is Theorem 2's query bound at constant 1: lg C(n,z) bits,
// what naming an answer of z of n rows takes (an answer of more than n/2 rows
// priced as its complement, which is what the index reads).
func QueryBitsBound(n, z int64) float64 { return entropy.AnswerBound(n, z) }

// SpaceBitsBound is Theorem 2's space bound at constant 1: nH₀ + n + σ lg²n
// bits for n rows over σ characters of 0th-order entropy h0 bits per row.
func SpaceBitsBound(n int64, sigma int, h0 float64) float64 {
	lg := math.Log2(float64(n))
	return float64(n)*h0 + float64(n) + float64(sigma)*lg*lg
}

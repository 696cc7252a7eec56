package core

import (
	"math"

	"repro/internal/entropy"
)

// Theorems 2's and 3's bounds at constant 1, the yardsticks the conformance
// test holds the static index to: the ratio of what an index reads or stores to these is
// the constant the theorem's O hides, measured.

// QueryBitsBound is Theorem 2's query bound at constant 1: lg C(n,z) bits,
// what naming an answer of z of n rows takes (an answer of more than n/2 rows
// priced as its complement, which is what the index reads).
func QueryBitsBound(n, z int64) float64 { return entropy.AnswerBound(n, z) }

// QueryBlocksBound is Theorem 2's block bound at constant 1:
// z lg(n/z)/B + lg_b n + lg lg n blocks for an answer of z of n rows, on
// blocks of B = blockBits bits that hold b = B/lg n words of lg n bits (an
// answer of more than n/2 rows priced as its complement, as QueryBitsBound
// prices it). The last two terms are the tree search and the materialised
// levels; the search runs in the internal memory the theorem assumes, so
// what an index reads beyond the scan term is one run per level.
func QueryBlocksBound(n, z int64, blockBits int) float64 {
	z = min(z, n-z)
	lg := math.Log2(float64(n))
	scan := 0.0
	if z > 0 {
		scan = float64(z) * math.Log2(float64(n)/float64(z)) / float64(blockBits)
	}
	return scan + lg/math.Log2(float64(blockBits)/lg) + math.Log2(lg)
}

// SpaceBitsBound is Theorem 2's space bound at constant 1: nH₀ + n + σ lg²n
// bits for n rows over σ characters of 0th-order entropy h0 bits per row.
func SpaceBitsBound(n int64, sigma int, h0 float64) float64 {
	lg := math.Log2(float64(n))
	return float64(n)*h0 + float64(n) + float64(sigma)*lg*lg
}

// ApproxBitsBound is Theorem 3's query bound at constant 1: z lg(1/ε) bits,
// what an approximate answer of z rows at false-positive rate ε reads.
func ApproxBitsBound(z int64, eps float64) float64 { return float64(z) * math.Log2(1/eps) }

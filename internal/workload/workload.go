// Package workload generates the synthetic columns and tables the
// experiments sweep over. The paper's bounds are parameterised only by n, σ,
// the answer size z and the empirical entropy H₀(x); the generators here
// control exactly those parameters (see the substitution table in DESIGN.md).
// All generators are deterministic given a seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Column is a string x ∈ Σⁿ: X[i] is the key of row i.
type Column struct {
	X     []uint32
	Sigma int
}

// Len returns n.
func (c Column) Len() int { return len(c.X) }

// Prefix returns the column's character prefix counts: prefix[a] rows hold a
// character below a, so prefix has σ+1 entries and prefix[σ] = n. It is the
// one alphabet check a column gets, failing on an alphabet size below 1 or a
// character outside [0,σ).
func (c Column) Prefix() ([]int64, error) {
	if c.Sigma < 1 {
		return nil, fmt.Errorf("workload: alphabet size %d", c.Sigma)
	}
	prefix := make([]int64, c.Sigma+1)
	for _, ch := range c.X {
		if int(ch) >= c.Sigma {
			return nil, fmt.Errorf("workload: character %d outside alphabet [0,%d)", ch, c.Sigma)
		}
		prefix[ch+1]++
	}
	for a := 0; a < c.Sigma; a++ {
		prefix[a+1] += prefix[a]
	}
	return prefix, nil
}

// Group returns the rows of each character in increasing order: byChar[a]
// lists the rows holding a. The lists are one array cut at Prefix's counts —
// the records of x ordered by character, then position — each capped at its
// length, so appending to one never overwrites the next.
func (c Column) Group() ([][]int64, error) {
	prefix, err := c.Prefix()
	if err != nil {
		return nil, err
	}
	rows := make([]int64, len(c.X))
	byChar := make([][]int64, c.Sigma)
	for a := range byChar {
		byChar[a] = rows[prefix[a]:prefix[a]:prefix[a+1]]
	}
	for i, ch := range c.X {
		byChar[ch] = append(byChar[ch], int64(i))
	}
	return byChar, nil
}

// Uniform draws each character independently and uniformly from [0,σ).
func Uniform(n, sigma int, seed int64) Column {
	rng := rand.New(rand.NewSource(seed))
	x := make([]uint32, n)
	for i := range x {
		x[i] = uint32(rng.Intn(sigma))
	}
	return Column{X: x, Sigma: sigma}
}

// Zipf draws characters from a Zipf distribution with exponent theta over
// ranks 1..σ (theta = 0 is uniform; larger theta is more skewed, lowering
// H₀). Ranks are mapped to characters by a seeded permutation so skew is not
// correlated with alphabet order.
func Zipf(n, sigma int, theta float64, seed int64) Column {
	rng := rand.New(rand.NewSource(seed))
	// CDF over ranks.
	cdf := make([]float64, sigma)
	var sum float64
	for r := 0; r < sigma; r++ {
		sum += 1 / math.Pow(float64(r+1), theta)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	perm := rng.Perm(sigma)
	x := make([]uint32, n)
	for i := range x {
		u := rng.Float64()
		r := sort.SearchFloat64s(cdf, u)
		if r >= sigma {
			r = sigma - 1
		}
		x[i] = uint32(perm[r])
	}
	return Column{X: x, Sigma: sigma}
}

// Runs generates a clustered column: characters arrive in runs whose lengths
// are geometric with the given mean. Clustered data is the regime where
// run-length-compressed bitmaps shine (e.g. sorted or nearly sorted
// attributes in OLAP fact tables).
func Runs(n, sigma int, meanRun float64, seed int64) Column {
	if meanRun < 1 {
		meanRun = 1
	}
	rng := rand.New(rand.NewSource(seed))
	x := make([]uint32, n)
	i := 0
	for i < n {
		c := uint32(rng.Intn(sigma))
		runLen := 1 + int(rng.ExpFloat64()*(meanRun-1)+0.5)
		for j := 0; j < runLen && i < n; j++ {
			x[i] = c
			i++
		}
	}
	return Column{X: x, Sigma: sigma}
}

// Markov generates a column where consecutive characters are correlated:
// with probability pStay the next character repeats the previous one,
// otherwise it is redrawn uniformly. pStay = 0 is Uniform.
func Markov(n, sigma int, pStay float64, seed int64) Column {
	rng := rand.New(rand.NewSource(seed))
	x := make([]uint32, n)
	cur := uint32(rng.Intn(sigma))
	for i := range x {
		if rng.Float64() >= pStay {
			cur = uint32(rng.Intn(sigma))
		}
		x[i] = cur
	}
	return Column{X: x, Sigma: sigma}
}

// Sorted generates a nondecreasing column with near-equal character
// frequencies — the best case for gap compression and the worst case for
// the "bitmaps are independent" intuition.
func Sorted(n, sigma int) Column {
	x := make([]uint32, n)
	for i := range x {
		x[i] = uint32(i * sigma / n)
	}
	return Column{X: x, Sigma: sigma}
}

// Table is a multi-attribute relation for the RID-intersection application:
// each column indexes one attribute of the same n rows.
type Table struct {
	Cols []Column
	N    int
}

// ColumnSpec describes one attribute of a synthetic table.
type ColumnSpec struct {
	Name  string
	Sigma int
	// Dist selects the generator: "uniform", "zipf", "runs", "markov",
	// "sorted".
	Dist  string
	Theta float64 // zipf exponent
	Param float64 // runs mean / markov pStay
}

// NewTable builds an n-row table with one column per spec.
func NewTable(n int, seed int64, specs []ColumnSpec) (*Table, error) {
	t := &Table{N: n}
	for i, s := range specs {
		colSeed := seed + int64(i)*7919
		var c Column
		switch s.Dist {
		case "uniform", "":
			c = Uniform(n, s.Sigma, colSeed)
		case "zipf":
			c = Zipf(n, s.Sigma, s.Theta, colSeed)
		case "runs":
			c = Runs(n, s.Sigma, s.Param, colSeed)
		case "markov":
			c = Markov(n, s.Sigma, s.Param, colSeed)
		case "sorted":
			c = Sorted(n, s.Sigma)
		default:
			return nil, fmt.Errorf("workload: unknown distribution %q", s.Dist)
		}
		t.Cols = append(t.Cols, c)
	}
	return t, nil
}

// RangeQuery is an alphabet range [Lo,Hi] on one column.
type RangeQuery struct {
	Lo, Hi uint32
}

// RandomRanges generates nq queries of the given range length over [0,σ).
func RandomRanges(nq, sigma, length int, seed int64) []RangeQuery {
	if length < 1 {
		length = 1
	}
	if length > sigma {
		length = sigma
	}
	rng := rand.New(rand.NewSource(seed))
	qs := make([]RangeQuery, nq)
	for i := range qs {
		lo := rng.Intn(sigma - length + 1)
		qs[i] = RangeQuery{Lo: uint32(lo), Hi: uint32(lo + length - 1)}
	}
	return qs
}

// BruteForce answers a range query by scanning the column — the oracle the
// index tests compare against.
func BruteForce(c Column, q RangeQuery) []int64 {
	var out []int64
	for i, v := range c.X {
		if v >= q.Lo && v <= q.Hi {
			out = append(out, int64(i))
		}
	}
	return out
}

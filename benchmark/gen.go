package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	secidx "repro"
	"repro/internal/workload"
)

// Inputs are made from the seed alone. The seed decides which rows hold
// which key and the order of operations; it does not decide how the skewed
// mass is laid out over the alphabet or which operations exist: frequency
// ranks are mapped to keys by one fixed layout, and operation lists are
// balanced designs (every key queried equally often, range starts
// stratified) in a seeded order. So every seed is statistically the same
// workload and a metric can be compared across seeds, not only across runs
// of one seed.

// rngFor derives an independent generator for one purpose from the run seed.
func rngFor(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// layout is the fixed map from frequency rank to key: rank k's key is
// layout(domain)[k], the same for every seed.
func layout(domain int) []int {
	return rand.New(rand.NewSource(0x5ec1d8)).Perm(domain)
}

// canonicalize relabels x in place so that its k-th most frequent value
// becomes layout(domain)[k].
func canonicalize(x []uint32, domain int) {
	freq := make([]int, domain)
	for _, v := range x {
		freq[v]++
	}
	order := make([]int, domain)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return freq[order[a]] > freq[order[b]] })
	lay := layout(domain)
	relabel := make([]uint32, domain)
	for k, v := range order {
		relabel[v] = uint32(lay[k])
	}
	for i, v := range x {
		x[i] = relabel[v]
	}
}

// zipfColumn draws a workload.Zipf column and gives it the fixed layout.
func zipfColumn(n, sigma int, theta float64, seed int64) workload.Column {
	col := workload.Zipf(n, sigma, theta, seed)
	canonicalize(col.X, sigma)
	return col
}

// balancedKeys returns passes seeded shuffles of the whole alphabet, one
// after another: every key appears exactly passes times.
func balancedKeys(rng *rand.Rand, sigma, passes int) []uint32 {
	out := make([]uint32, 0, sigma*passes)
	for p := 0; p < passes; p++ {
		for _, c := range rng.Perm(sigma) {
			out = append(out, uint32(c))
		}
	}
	return out
}

// balancedRanges returns q ranges whose lengths cycle evenly through
// [minLen,maxLen] and whose starts are stratified over [-(len-1), sigma-1]
// and then clipped to the alphabet, so that every key is covered by the same
// share of ranges whatever its position (ranges at the two edges are
// shorter). Order and pairing are seeded.
func balancedRanges(rng *rand.Rand, q, sigma, minLen, maxLen int) []secidx.Range {
	lens := make([]int, q)
	for i := range lens {
		lens[i] = minLen
		if q > 1 {
			lens[i] += i * (maxLen - minLen) / (q - 1)
		}
	}
	rng.Shuffle(q, func(i, j int) { lens[i], lens[j] = lens[j], lens[i] })
	strata := rng.Perm(q)
	out := make([]secidx.Range, q)
	for i := range out {
		l := min(lens[i], sigma)
		u := (float64(strata[i]) + rng.Float64()) / float64(q)
		start := int(u*float64(sigma+l-1)) - (l - 1)
		out[i] = secidx.Range{Lo: uint32(max(start, 0)), Hi: uint32(min(start+l-1, sigma-1))}
	}
	return out
}

// hotRanges returns q ranges of length l whose starts are zipf(theta)-skewed
// over the possible positions, as a balanced design: the position of
// frequency rank r appears as often as q times its zipf mass, rounded by
// largest remainder, the ranks map to positions by the fixed layout, and
// only the order is seeded. The same positions are as hot under every seed,
// which is what lets overlap-dependent counts repeat.
func hotRanges(rng *rand.Rand, q, sigma, l int, theta float64) []secidx.Range {
	positions := sigma - l + 1
	mass := make([]float64, positions)
	var sum float64
	for r := range mass {
		mass[r] = 1 / math.Pow(float64(r+1), theta)
		sum += mass[r]
	}
	counts := make([]int, positions)
	rest := make([]float64, positions)
	left := q
	for r := range mass {
		share := float64(q) * mass[r] / sum
		counts[r] = int(share)
		rest[r] = share - float64(counts[r])
		left -= counts[r]
	}
	order := make([]int, positions)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rest[order[a]] > rest[order[b]] })
	for _, r := range order[:left] {
		counts[r]++
	}
	lay := layout(positions)
	out := make([]secidx.Range, 0, q)
	for r, c := range counts {
		for ; c > 0; c-- {
			out = append(out, secidx.Range{Lo: uint32(lay[r]), Hi: uint32(lay[r] + l - 1)})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// opHash fingerprints an operation list: same seed, same hash.
type opHash struct{ h uint64 }

func newOpHash() *opHash { return &opHash{h: 14695981039346656037} }

func (o *opHash) add(vals ...uint64) {
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			o.h ^= v & 0xff
			o.h *= 1099511628211
			v >>= 8
		}
	}
}

func (o *opHash) addRanges(kind uint64, rs []secidx.Range) {
	for _, r := range rs {
		o.add(kind, uint64(r.Lo), uint64(r.Hi))
	}
}

// sampler picks a seeded share of at least 2 % of a list of count operations
// for checking against the oracle (and, in the traced run, for probing),
// and never fewer than minSamples when the list is that long.
type sampler struct{ mod, off int }

func newSampler(rng *rand.Rand, count, every, minSamples int) sampler {
	mod := max(1, min(every, count/max(minSamples, 1)))
	return sampler{mod: mod, off: rng.Intn(mod)}
}

func (s sampler) pick(i int) bool { return i%s.mod == s.off }

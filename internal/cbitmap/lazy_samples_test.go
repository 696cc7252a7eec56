package cbitmap

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/bitio"
)

// lazyCase is one merge, sampled or not: k disk-backed members of m random
// positions each over [0,n), merged as a union or a complement, through the
// path dense names.
type lazyCase struct {
	name       string
	n          int64
	k, m       int
	complement bool
	dense      bool // window kernel (mergeDense), else the per-row loop
}

var lazyCases = []lazyCase{
	{"window union", 1 << 18, 4, 6000, false, true},
	{"per-row union", 1 << 24, 3, 3000, false, false},
	{"window complement", 1 << 14, 2, 500, true, true},
	{"per-row complement", 1 << 14, 2, 20, true, false},
}

// merge runs c over validating streams read from one encoded buffer, as a
// query reads members from disk — through MergeStreams or
// MergeStreamsComplement when sampled, else MergeStreamsUnsampled — and
// returns the answer and the sorted positions it must hold.
func (c lazyCase) merge(t *testing.T, seed int64, sampled bool) (*Bitmap, []int64) {
	t.Helper()
	ms := streamTestSets(t, c.k, c.m, c.n, seed)
	w, starts, lens := encodeConcatWriter(ms)
	rd := bitio.NewReader(w.Bytes(), w.Len())
	streams := func() []*Stream {
		out := make([]*Stream, len(ms))
		for i, m := range ms {
			out[i] = new(Stream)
			if err := out[i].InitDecode(rd, starts[i], lens[i], m.Card(), c.n, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	heads, _, err := primeHeads(new(mergeScratch), streams())
	if err != nil {
		t.Fatal(err)
	}
	if got := denseEnough(c.n, c.complement, heads); got != c.dense {
		t.Fatalf("%s: window kernel %v, want %v", c.name, got, c.dense)
	}
	merge := func(n int64, s ...*Stream) (*Bitmap, error) {
		return MergeStreamsUnsampled(n, c.complement, s...)
	}
	switch {
	case sampled && c.complement:
		merge = MergeStreamsComplement
	case sampled:
		merge = MergeStreams
	}
	got, err := merge(c.n, streams()...)
	if err != nil {
		t.Fatal(err)
	}
	member := make(map[int64]bool)
	for _, m := range ms {
		for _, p := range m.Positions() {
			member[p] = true
		}
	}
	var want []int64
	if !c.complement {
		for p := range member {
			want = append(want, p)
		}
		slices.Sort(want)
		return got, want
	}
	for p := int64(0); p < c.n; p++ {
		if !member[p] {
			want = append(want, p)
		}
	}
	return got, want
}

// requireContainsRank checks Contains and Rank at every element of want and
// at every absent position beside one.
func requireContainsRank(t *testing.T, what string, bm *Bitmap, want []int64) {
	t.Helper()
	check := func(q int64) {
		if q < 0 || q >= bm.Universe() {
			return
		}
		rank, in := slices.BinarySearch(want, q)
		if c, r := bm.Contains(q), bm.Rank(q); c != in || r != int64(rank) {
			t.Fatalf("%s: Contains(%d) = %v, Rank = %d; want %v, %d", what, q, c, r, in, rank)
		}
	}
	for i, p := range want {
		check(p)
		if i == 0 || want[i-1] < p-1 {
			check(p - 1)
		}
		if i == len(want)-1 || want[i+1] > p+1 {
			check(p + 1)
		}
	}
}

// TestMergeAnswersSampleLazily: an unsampled merge — the window kernel, the
// per-row loop and the complement alike — records no skip samples as it
// encodes, and its answer's first point query builds exactly the samples
// FromPositions records, so Contains and Rank hold at every element and
// beside it. The sampled merges, whose answers go to the caller as they
// stand, carry their samples from construction.
func TestMergeAnswersSampleLazily(t *testing.T) {
	for i, c := range lazyCases {
		got, want := c.merge(t, int64(50+i), false)
		ref := MustFromPositions(c.n, want)
		if ref.SampleBits() == 0 {
			t.Fatalf("%s: %d positions keep no samples; the case tests nothing", c.name, len(want))
		}
		if got.samplePos != nil || got.SampleBits() != 0 {
			t.Fatalf("%s: answer carries %d eager skip samples", c.name, len(got.samplePos))
		}
		got.Contains(want[len(want)/2])
		requireSamplesOf(t, c.name, got, ref)
		requireContainsRank(t, c.name, got, want)

		eager, _ := c.merge(t, int64(50+i), true)
		if eager.samplePos == nil {
			t.Fatalf("%s: sampled merge answer carries no samples", c.name)
		}
		requireContainsRank(t, c.name+" sampled", eager, want)
	}
}

// TestMergeLazySamplesConcurrent: the answer cache hands one *Bitmap to
// every client that asks its range, so the first point queries on a fresh
// answer built lazily race to build its samples. Run under -race.
func TestMergeLazySamplesConcurrent(t *testing.T) {
	c := lazyCases[0]
	got, want := c.merge(t, 60, false)
	ref := MustFromPositions(c.n, want)
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				q := rng.Int63n(c.n)
				rank, in := slices.BinarySearch(want, q)
				if got.Contains(q) != in || got.Rank(q) != int64(rank) {
					errs <- fmt.Errorf("goroutine %d: Contains/Rank wrong at %d", g, q)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	requireSamplesOf(t, "after concurrent readers", got, ref)
}

// TestMergeFootprintIgnoresPoolHistory: a merge answer owns an exact-size
// buffer, whatever the pooled builder it came from held before, so the same
// merge run after a larger one costs an answer cache the same bytes.
func TestMergeFootprintIgnoresPoolHistory(t *testing.T) {
	small, large := lazyCases[1], lazyCases[0]
	var answers []*Bitmap
	for _, c := range []lazyCase{small, large, small} {
		got, _ := c.merge(t, 70, true)
		if cap(got.buf) != len(got.buf) {
			t.Fatalf("%s: buffer cap %d, len %d", c.name, cap(got.buf), len(got.buf))
		}
		answers = append(answers, got)
	}
	if f, g := answers[0].FootprintBytes(), answers[2].FootprintBytes(); f != g {
		t.Fatalf("FootprintBytes %d, then %d after a larger merge", f, g)
	}
}

package cbitmap

import (
	"math/rand"
	"testing"
)

// TestUnionBitsBoundsTheUnion: the union's size hint is an upper bound on the
// union's encoded size at every density and overlap — duplicates across the
// inputs, adjacent positions (1-bit codes), a universe of one — so the merge
// never regrows the buffer it presized.
func TestUnionBitsBoundsTheUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		n := int64(1 + rng.Intn(1<<uint(1+rng.Intn(16))))
		k := 1 + rng.Intn(6)
		var bms []*Bitmap
		for i := 0; i < k; i++ {
			var pos []int64
			stride := int64(1 + rng.Intn(1+int(n)/(1+rng.Intn(64))))
			for p := rng.Int63n(stride); p < n; p += 1 + rng.Int63n(stride) {
				pos = append(pos, p)
			}
			bms = append(bms, MustFromPositions(n, pos))
		}
		streams := bitmapStreams(bms, nil)
		heads, _, err := primeHeads(new(mergeScratch), streams)
		if err != nil {
			t.Fatal(err)
		}
		bound := unionBits(n, heads)
		u, err := MergeStreams(n, bitmapStreams(bms, nil)...)
		if err != nil {
			t.Fatal(err)
		}
		if u.SizeBits() > bound {
			t.Fatalf("trial %d: n=%d k=%d: union of %d positions takes %d bits, bound %d", trial, n, k, u.Card(), u.SizeBits(), bound)
		}
		// What a cache charges for retaining the answer covers what it pins:
		// the buffer with the slack the hint left, and the samples a point
		// query builds afterwards.
		u.Contains(0)
		if pinned := int64(cap(u.buf)) + int64(u.SampleBits()+7)/8; u.FootprintBytes() < pinned {
			t.Fatalf("trial %d: FootprintBytes %d under the %d bytes pinned (%d stream bits)", trial, u.FootprintBytes(), pinned, u.SizeBits())
		}
	}
}

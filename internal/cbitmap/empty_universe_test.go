package cbitmap

import (
	"testing"

	"repro/internal/bitio"
)

// TestDecodeEmptyUniverseRejected: a stream claiming positions in an empty
// universe must be rejected (regression: the vmax sentinel once read n=0 as
// "validation disabled").
func TestDecodeEmptyUniverseRejected(t *testing.T) {
	w := bitio.NewWriter(0)
	w.WriteBits(1, 1) // gap 1 → position 0
	r := bitio.NewReader(w.Bytes(), w.Len())
	if bm, err := Decode(r, 1, 0); err == nil {
		t.Fatalf("Decode accepted card=1 in empty universe: %+v", bm.Positions())
	}
	r2 := bitio.NewReader(w.Bytes(), w.Len())
	var s Stream
	if err := s.InitDecode(r2, 0, w.Len(), 1, 0, 0, 0); err == nil {
		t.Fatal("InitDecode accepted card=1 in empty universe")
	}
}

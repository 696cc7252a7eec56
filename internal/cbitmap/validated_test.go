package cbitmap

import "testing"

// TestValidatedLast: every merge path — ordered, sparse, dense, complement —
// leaves each validating input stream reporting its largest position, and a
// replay view, a stream with positions pending, a failed stream and one whose
// range holds a bit past its last code report nothing.
func TestValidatedLast(t *testing.T) {
	const off = 5
	sorted := streamTestSets(t, 1, 3000, 1<<20, 7)[0].Positions()
	cases := []struct {
		name  string
		n     int64
		ms    []*Bitmap
		merge func(int64, ...*Stream) (*Bitmap, error)
	}{
		{"ordered", 1 << 20, orderedMembers(1<<20, sorted, 6), MergeStreamsOrdered},
		{"sparse", 1 << 20, streamTestSets(t, 5, 40, 1<<20, 8), MergeStreams},
		{"dense", 1 << 16, streamTestSets(t, 4, 6000, 1<<16, 9), MergeStreams},
		{"complement", 1 << 16, streamTestSets(t, 4, 6000, 1<<16, 10), MergeStreamsComplement},
	}
	for _, tc := range cases {
		rd, starts, lens := encodeConcat(tc.ms)
		streams := make([]*Stream, len(tc.ms))
		for i, m := range tc.ms {
			streams[i] = new(Stream)
			if err := streams[i].InitDecode(rd, starts[i], lens[i], m.Card(), tc.n+off, off, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tc.merge(tc.n+off, streams...); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, s := range streams {
			if last, ok := s.ValidatedLast(); !ok || last != tc.ms[i].last+off {
				t.Fatalf("%s: stream %d reports (%d, %v), want (%d, true)", tc.name, i, last, ok, tc.ms[i].last+off)
			}
		}
	}

	ms := streamTestSets(t, 2, 200, 1<<20, 11)
	rd, starts, lens := encodeConcat(ms)
	var s Stream
	if err := s.InitDecodeValidated(rd, starts[0], lens[0], ms[0].Card(), ms[0].last, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeStreams(1<<20, &s); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.ValidatedLast(); ok {
		t.Fatal("a replay view reports a validated last")
	}
	if err := s.InitDecode(rd, starts[0], lens[0], ms[0].Card(), 1<<20, 0, 0); err != nil {
		t.Fatal(err)
	}
	s.Next()
	if _, ok := s.ValidatedLast(); ok {
		t.Fatal("a stream with positions pending reports a validated last")
	}
	if err := s.InitDecode(rd, starts[0], lens[0], ms[0].Card(), ms[0].last, 0, 0); err != nil {
		t.Fatal(err)
	}
	if s.nextAll() || s.Err() == nil {
		t.Fatal("a position at the universe bound passed validation")
	}
	if _, ok := s.ValidatedLast(); ok {
		t.Fatal("a failed stream reports a validated last")
	}
	if err := s.InitDecode(rd, starts[0], lens[0]+1, ms[0].Card(), 1<<20, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !s.nextAll() {
		t.Fatal(s.Err())
	}
	if _, ok := s.ValidatedLast(); ok {
		t.Fatal("a stream with a bit past its last code reports a validated last")
	}
}

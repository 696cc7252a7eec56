package secidx

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/cbitmap"
	"repro/internal/workload"
)

// TestAnswersCanonical: internal members are stored at their exp-Golomb
// orders, yet every answer is the gamma-coded bitmap of its rows, byte for
// byte — cbitmap.FromPositions over the brute-force rows — whichever index
// (static or four shards), column (uniform, zipf, runs) and handle (in
// memory, reopened pread or mmap) answers it, by Query or QueryBatch.
func TestAnswersCanonical(t *testing.T) {
	const n, sigma = 24000, 64
	cols := []struct {
		name string
		x    []uint32
	}{
		{"uniform", workload.Uniform(n, sigma, 51).X},
		{"zipf", workload.Zipf(n, sigma, 1.0, 52).X},
		{"runs", workload.Runs(n, sigma, 40, 53).X},
	}
	var ranges []Range
	for lo := uint32(0); lo < sigma; lo += 3 {
		for length := uint32(1); lo+length <= sigma; length *= 2 {
			ranges = append(ranges, Range{Lo: lo, Hi: lo + length - 1})
		}
	}
	type querier interface {
		Query(lo, hi uint32) (*Result, Stats, error)
		QueryBatch(ranges []Range) ([]*Result, Stats, error)
	}
	opts := Options{BlockBits: 2048, Seed: 3}
	for _, col := range cols {
		want := make([]*cbitmap.Bitmap, len(ranges))
		for i, r := range ranges {
			want[i] = cbitmap.MustFromPositions(n, bruteRange(col.x, r.Lo, r.Hi))
		}
		for _, shards := range []int{1, 4} {
			name := fmt.Sprintf("%s/shards=%d", col.name, shards)
			var built querier
			var write func(string) error
			ordered := 0
			if shards == 1 {
				ix, err := Build(col.x, sigma, opts)
				if err != nil {
					t.Fatal(err)
				}
				built, write = ix, ix.WriteFile
				ordered = membersAboveOrder0(t, ix.ax.PayloadUnderCodes)
			} else {
				ix, err := BuildSharded(col.x, sigma, ShardOptions{Options: opts, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				built, write = ix, ix.WriteFile
				for _, p := range ix.sx.Parts() {
					ordered += membersAboveOrder0(t, p.Ax.PayloadUnderCodes)
				}
			}
			if ordered == 0 && col.name != "runs" {
				t.Fatalf("%s: no member stored above order 0", name)
			}
			path := filepath.Join(t.TempDir(), "ix.secidx")
			if err := write(path); err != nil {
				t.Fatal(err)
			}
			handles := map[string]querier{"memory": built}
			for mode, m := range map[string]FileMode{"pread": ModePread, "mmap": ModeMmap} {
				o, err := OpenFile(path, OpenOptions{Mode: m})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { o.Close() })
				if shards == 1 {
					handles[mode] = o.Static
				} else {
					handles[mode] = o.Sharded
				}
			}
			for hname, h := range handles {
				for i, r := range ranges {
					got, _, err := h.Query(r.Lo, r.Hi)
					if err != nil {
						t.Fatal(err)
					}
					if !cbitmap.Equal(got.bm, want[i]) {
						t.Fatalf("%s %s Query %v: answer's bytes differ from FromPositions'", name, hname, r)
					}
				}
				got, _, err := h.QueryBatch(ranges)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range ranges {
					if !cbitmap.Equal(got[i].bm, want[i]) {
						t.Fatalf("%s %s QueryBatch %v: answer's bytes differ from FromPositions'", name, hname, r)
					}
				}
			}
		}
	}
}

// membersAboveOrder0 counts the members an index stores above order 0.
func membersAboveOrder0(t *testing.T, codes func() ([]LevelCodes, error)) int {
	t.Helper()
	levels, err := codes()
	if err != nil {
		t.Fatal(err)
	}
	above := 0
	for _, l := range levels {
		for k, c := range l.Orders {
			if k > 0 {
				above += c
			}
		}
	}
	return above
}

package secidx

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/cbitmap"
	"repro/internal/gamma"
	"repro/internal/workload"
)

// TestAnswersCanonical: members are stored at their exp-Golomb orders, yet
// every answer holds the rows of cbitmap.FromPositions over the brute-force
// rows in the canonical encoding at its own order — gamma, or the order of
// the member it copied — whichever index (static or four shards), column
// (uniform, zipf, runs) and handle (in memory, reopened pread or mmap)
// answers it, by Query or QueryBatch; and some answers carry an order.
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
			atOrder := 0
			for hname, h := range handles {
				for i, r := range ranges {
					got, _, err := h.Query(r.Lo, r.Hi)
					if err != nil {
						t.Fatal(err)
					}
					if !canonical(got.bm, want[i]) {
						t.Fatalf("%s %s Query %v: answer differs from FromPositions' rows at order %d", name, hname, r, got.bm.Order())
					}
					if got.bm.Order() > 0 {
						atOrder++
					}
				}
				got, _, err := h.QueryBatch(ranges)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range ranges {
					if !canonical(got[i].bm, want[i]) {
						t.Fatalf("%s %s QueryBatch %v: answer differs from FromPositions' rows at order %d", name, hname, r, got[i].bm.Order())
					}
				}
			}
			if atOrder == 0 && col.name != "runs" {
				t.Fatalf("%s: no answer carries an order above 0", name)
			}
		}
	}
}

// canonical reports whether got holds want's rows (want gamma-coded) in the
// canonical encoding at got's order: as many bits as their codes at it take.
func canonical(got, want *cbitmap.Bitmap) bool {
	if !cbitmap.Equal(got, want) {
		return false
	}
	bits, prev := 0, int64(-1)
	it := want.Iter()
	for p, ok := it.Next(); ok; p, ok = it.Next() {
		bits += gamma.LenK(uint64(p-prev), got.Order())
		prev = p
	}
	return got.SizeBits() == bits
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
		for k, c := range l.Total().Orders {
			if k > 0 {
				above += c
			}
		}
	}
	return above
}

package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitio"
	"repro/internal/container"
	"repro/internal/gamma"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// TestDirectoryStream: a build's image holds the gap streams alone, from bit
// 0, and the metadata the directory stream. Over block sizes and alphabets,
// exact-only and approximate, a reopen decodes from the stream the extents,
// orders and hashed directory the build made; the ledger charges the stream
// as EncodeMeta writes it, by part, and its parts sum to the image.
func TestDirectoryStream(t *testing.T) {
	opts := ApproxOptions{Seed: 3}
	for _, bb := range []int{512, 4096} {
		for _, sigma := range []int{2, 256, 4096} {
			for _, exact := range []bool{false, true} {
				t.Run(fmt.Sprintf("B=%d/sigma=%d/exact=%v", bb, sigma, exact), func(t *testing.T) {
					col := workload.Zipf(3*sigma+5000, sigma, 1.0, int64(bb+sigma))
					d := iomodel.NewDisk(iomodel.Config{BlockBits: bb})
					build := BuildApprox
					if exact {
						build = func(d *iomodel.Disk, col workload.Column, opts ApproxOptions) (*Approx, error) {
							return BuildExactOn(NewWorkers(1), d, col, opts.OptimalOptions)
						}
					}
					ax, err := build(d, col, opts)
					if err != nil {
						t.Fatal(err)
					}
					if ax.layout != nil || ax.levels[0].members[0].ext.Off != 0 {
						t.Fatalf("built image has a tree layout (%v) or its first member at bit %d", ax.layout != nil, ax.levels[0].members[0].ext.Off)
					}
					got, err := reopen(t, d, ax, opts)
					if err != nil {
						t.Fatal(err)
					}
					for li, lv := range ax.levels {
						if !slices.Equal(got.levels[li].members, lv.members) {
							t.Fatalf("level %d: reopened members differ from the build's", li)
						}
						for j, arr := range ax.hmaps[li].perJ {
							g := got.hmaps[li].perJ[j]
							if !slices.Equal(g.exts, arr.exts) || !slices.Equal(g.cards, arr.cards) || !slices.Equal(g.orders, arr.orders) {
								t.Fatalf("level %d h_%d: reopened hashed directory differs from the build's", li, j+1)
							}
						}
					}
					var e container.Encoder
					if err := ax.EncodeMeta(&e); err != nil {
						t.Fatal(err)
					}
					dec := container.NewDecoder(e.Bytes())
					for range sigma + 3 {
						dec.U()
					}
					written := int64(dec.U())
					for _, h := range []*Approx{ax, got} {
						l := h.SpaceLedger()
						if l.DirBits != written || l.Directory.Total() != written || l.LayoutBits != 0 || l.RecordBits != 0 {
							t.Fatalf("ledger charges a %d-bit directory (%+v) and %d layout bits; the stream holds %d", l.DirBits, l.Directory, l.LayoutBits, written)
						}
						if l.ResidentBits() != l.ImageBits || h.SizeBits() != l.ImageBits+l.DirBits {
							t.Fatalf("ledger parts sum to %d of %d image bits, SizeBits %d", l.ResidentBits(), l.ImageBits, h.SizeBits())
						}
						if exact && l.Directory.HashedBits != 0 {
							t.Fatalf("hashed directory of %d bits on an index with k = %d", l.Directory.HashedBits, h.k)
						}
					}
					requirePlanningReadsNothing(t, got, col)
				})
			}
		}
	}
}

// TestDirectoryStreamCorrupt: a directory stream that does not describe its
// image fails to open, without a panic and allocating under 1 MiB. OpenFile
// reports every OpenApprox failure as ErrCorrupt (the root package's
// TestOpenCorruptDirectory).
func TestDirectoryStreamCorrupt(t *testing.T) {
	opts := ApproxOptions{Seed: 42}
	col := workload.Zipf(20000, 64, 1.0, 9)
	// find returns the first stored hashed set, by level, j and member, for
	// which f holds.
	find := func(ax *Approx, f func(arr *hashArray, li, j, i int) bool) (*hashArray, int, int) {
		t.Helper()
		for li := range ax.hmaps {
			for j := range ax.hmaps[li].perJ {
				arr := &ax.hmaps[li].perJ[j]
				for i := range arr.cards {
					if arr.stored(i) && f(arr, li, j, i) {
						return arr, li, i
					}
				}
			}
		}
		t.Fatal("no such set")
		return nil, 0, 0
	}
	// dropped returns the first dropped set, by level, j and member.
	dropped := func(ax *Approx) (*hashArray, int, int) {
		t.Helper()
		for li := range ax.hmaps {
			for j := range ax.hmaps[li].perJ {
				arr := &ax.hmaps[li].perJ[j]
				for i := range arr.cards {
					if arr.dropped(i) {
						return arr, li, i
					}
				}
			}
		}
		t.Fatal("no dropped set")
		return nil, 0, 0
	}
	for _, tc := range []struct {
		name string
		// craft changes ax or its plan, or returns a stream to write in place
		// of the plan's.
		craft func(ax *Approx, p *dirPlan) *bitio.Writer
		want  string
		rev2  bool // write and open the directory at revision 2
	}{
		{"a truncated stream", func(ax *Approx, p *dirPlan) *bitio.Writer {
			w := p.write(ax.levels, ax.hmaps)
			cut := bitio.NewWriter(w.Len())
			if err := cut.CopyBits(bitio.NewReader(w.Bytes(), w.Len()), w.Len()-9); err != nil {
				t.Fatal(err)
			}
			return cut
		}, "past end", false},
		{"lengths that sum past the image", func(ax *Approx, p *dirPlan) *bitio.Writer {
			lv := ax.levels[len(ax.levels)-1]
			lv.members[len(lv.members)-1].ext.Bits += ax.disk.AllocatedBits()
			*p = planDirectory(ax.levels, ax.hmaps, ax.k)
			return nil
		}, "sum past the", false},
		{"a length order above gamma.MaxOrder", func(ax *Approx, p *dirPlan) *bitio.Writer {
			w := p.write(ax.levels, ax.hmaps)
			pos := 0 // the first level's length order follows its order runs
			for _, r := range p.levels[0].runs {
				pos += orderBits + gamma.Len(r.n)
			}
			for b := pos; b < pos+orderBits; b++ {
				w.Bytes()[b/8] |= 0x80 >> (b % 8)
			}
			return w
		}, "order 63 above", false},
		{"a member order above gamma.MaxOrder", func(ax *Approx, p *dirPlan) *bitio.Writer {
			p.levels[1].runs[0].k = 63
			return nil
		}, "order 63 above", false},
		{"an order on a set that takes none", func(ax *Approx, p *dirPlan) *bitio.Writer {
			// A set's order is hashedOrder's, at most its member's: a member
			// at order 0 leaves its sets none, and a cardWord that flags one
			// is corrupt.
			arr, li, i := find(ax, func(*hashArray, int, int, int) bool { return true })
			ax.levels[li].members[i].k, arr.orders[i] = 0, 1
			arr.exts[i].Bits = max(arr.exts[i].Bits, 2*arr.cards[i]) // at least two bits a code at order 1
			*p = planDirectory(ax.levels, ax.hmaps, ax.k)
			return nil
		}, "flagged at order 0", false},
		{"an order run longer than its level", func(ax *Approx, p *dirPlan) *bitio.Writer {
			runs := p.levels[0].runs
			runs[len(runs)-1].n++
			return nil
		}, "order run of", false},
		{"a hashed card above its member's rows", func(ax *Approx, p *dirPlan) *bitio.Writer {
			arr, li, i := find(ax, func(*hashArray, int, int, int) bool { return true })
			m := ax.levels[li].members[i]
			arr.cards[i], arr.orders[i] = m.end-m.start+1, 0
			arr.exts[i].Bits = max(arr.exts[i].Bits, arr.cards[i]) // at least a bit a code
			*p = planDirectory(ax.levels, ax.hmaps, ax.k)
			return nil
		}, "hashed set of", true},
		{"more collisions than its member's rows", func(ax *Approx, p *dirPlan) *bitio.Writer {
			// The writer's member claims more rows than the reader's tree
			// gives it, so the set's collisions outnumber the reader's rows.
			arr, li, i := find(ax, func(arr *hashArray, li, _, i int) bool {
				m := ax.levels[li].members[i]
				return m.ext.Bits >= (m.rows()+arr.cards[i])*int64(m.k+1)
			})
			ax.levels[li].members[i].end += arr.cards[i]
			*p = planDirectory(ax.levels, ax.hmaps, ax.k)
			return nil
		}, "collisions for a member", false},
		{"a stored set no shorter than its member", func(ax *Approx, p *dirPlan) *bitio.Writer {
			arr, li, i := dropped(ax)
			arr.exts[i].Bits, arr.priced[i] = ax.levels[li].members[i].ext.Bits, 0
			arr.cards[i], arr.orders[i] = 1, 0
			*p = planDirectory(ax.levels, ax.hmaps, ax.k)
			return nil
		}, "not shorter than its", false},
		{"a dropped set priced below its member", func(ax *Approx, p *dirPlan) *bitio.Writer {
			// The priced length is coded as its excess over the member's, so
			// a shorter one can only be written as an excess that wraps.
			arr, li, i := dropped(ax)
			arr.priced[i] = ax.levels[li].members[i].ext.Bits - 1<<62
			*p = planDirectory(ax.levels, ax.hmaps, ax.k)
			return nil
		}, "priced", false},
	} {
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
		ax, err := BuildApprox(d, col, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reopen(t, d, ax, opts); err != nil {
			t.Fatalf("as built: %v", err)
		}
		revision := StaticRevision
		if tc.rev2 {
			for li := range ax.hmaps {
				for j := range ax.hmaps[li].perJ {
					ax.hmaps[li].perJ[j].priced = nil
				}
			}
			revision = 2
		}
		p := planDirectory(ax.levels, ax.hmaps, ax.k)
		w := tc.craft(ax, &p)
		if w == nil {
			w = p.write(ax.levels, ax.hmaps)
		}
		var e container.Encoder
		ax.encodeMeta(&e, w)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err = openPayload(d, ax, opts, revision, e.Bytes())
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v, want %q", tc.name, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%s: allocated %d bytes", tc.name, grew)
		}
	}
}

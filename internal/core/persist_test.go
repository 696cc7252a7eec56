package core

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/container"
	"repro/internal/gamma"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// reopen round-trips ax's metadata through OpenApprox over the device it was
// built on: through EncodeMeta as StaticRevision, or as revision 1 when ax
// has the tree layout (withLayout).
func reopen(t *testing.T, d *iomodel.Disk, ax *Approx, opts ApproxOptions) (*Approx, error) {
	revision := StaticRevision
	if ax.layout != nil {
		revision = 1
	}
	return reopenAt(t, d, ax, opts, revision)
}

// reopenAt is reopen reading the payload as the given revision: 0 for an
// index that stores every hashed set, as files written before did. The
// payload is encodeRecordsMeta's when ax has the tree layout.
func reopenAt(t *testing.T, d *iomodel.Disk, ax *Approx, opts ApproxOptions, revision int) (*Approx, error) {
	t.Helper()
	var e container.Encoder
	if ax.layout != nil {
		e.Raw(encodeRecordsMeta(t, ax))
	} else if err := ax.EncodeMeta(&e); err != nil {
		t.Fatal(err)
	}
	return openPayload(d, ax, opts, revision, e.Bytes())
}

// reopenUnchecked is reopen through the stream writer alone, for an index
// whose hashed directory a test has changed: EncodeMeta would refuse it,
// since its sets no longer lie where a reader places them.
func reopenUnchecked(t *testing.T, d *iomodel.Disk, ax *Approx, opts ApproxOptions) (*Approx, error) {
	p := planDirectory(ax.levels, ax.hmaps, ax.k)
	var e container.Encoder
	ax.encodeMeta(&e, p.write(ax.levels, ax.hmaps))
	return openPayload(d, ax, opts, StaticRevision, e.Bytes())
}

// openPayload opens payload as ax's metadata of the given revision over d,
// which must read it to its end.
func openPayload(d *iomodel.Disk, ax *Approx, opts ApproxOptions, revision int, payload []byte) (*Approx, error) {
	dec := container.NewDecoder(payload)
	got, err := OpenApprox(d, ax.Sigma(), revision, opts, dec)
	if err == nil {
		err = dec.Finish()
	}
	return got, err
}

// TestOpenApproxStoredLevels covers the loader's side of the level cap: what a
// build before the cap laid down (one level more than is useful, at every n)
// opens, reports the surplus in its ledger — its hashed directory charged at
// what the metadata spends on it, as a fresh build's is — never selects it
// and answers like a fresh build, which reads no more bits; a stored count
// below the useful one or above maxStoredJ is refused.
func TestOpenApproxStoredLevels(t *testing.T) {
	opts := ApproxOptions{Seed: 42}
	for _, n := range []int{3, 16, 300, 5000, 70000} {
		sigma := min(64, n)
		col := workload.Zipf(n, sigma, 1.0, int64(n))
		ld := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
		legacy, err := buildApproxReferenceK(ld, col, opts, legacyMaxJ, 0)
		if err != nil {
			t.Fatal(err)
		}
		ld, legacy = withLayout(t, legacy)
		old, err := reopenAt(t, ld, legacy, opts, 0)
		if err != nil {
			t.Fatalf("n=%d: legacy metadata (k=%d stored): %v", n, legacy.k, err)
		}
		fresh, err := BuildApprox(iomodel.NewDisk(iomodel.Config{BlockBits: 2048}), col, opts)
		if err != nil {
			t.Fatal(err)
		}
		// every is what a build between the cap and the omitted sets stored.
		every, err := buildApproxReference(iomodel.NewDisk(iomodel.Config{BlockBits: 2048}), col, opts)
		if err != nil {
			t.Fatal(err)
		}
		if old.K() != fresh.K() || legacy.k != fresh.K()+1 {
			t.Fatalf("n=%d: reopened K() = %d, fresh %d, stored %d", n, old.K(), fresh.K(), legacy.k)
		}
		ol, fl, el := old.SpaceLedger(), fresh.SpaceLedger(), every.SpaceLedger()
		if ol.ResidentBits() != ol.ImageBits || fl.ResidentBits() != fl.ImageBits {
			t.Fatalf("n=%d: ledgers do not sum to their images: %d/%d, %d/%d",
				n, ol.ResidentBits(), ol.ImageBits, fl.ResidentBits(), fl.ImageBits)
		}
		for _, c := range []struct {
			name    string
			ax      *Approx
			l       SpaceLedger
			encoded *Approx
		}{{"reopened", old, ol, legacy}, {"fresh", fresh, fl, fresh}} {
			// The reopened file's hashed directory is varints; the fresh
			// build's directory is a stream, which the metadata holds whole.
			var meta int64
			if c.ax.layout != nil {
				var e container.Encoder
				c.encoded.encodeHashedGroups(&e, c.encoded.k)
				meta = 8 * int64(len(e.Bytes()))
			} else {
				p := planDirectory(c.ax.levels, c.ax.hmaps, c.ax.k)
				meta = int64(p.write(c.ax.levels, c.ax.hmaps).Len())
			}
			if c.l.DirBits != meta || c.ax.SizeBits() != c.l.ResidentBits()-c.l.PadBits+meta {
				t.Fatalf("n=%d %s: ledger charges a %d-bit hashed directory, SizeBits %d; the metadata spends %d bits on it",
					n, c.name, c.l.DirBits, c.ax.SizeBits(), meta)
			}
		}
		surplus := ol.ImageBits - ol.LayoutBits - el.ImageBits // what a build after the cap no longer lays down, past the older file's layout
		for li, lv := range ol.Levels {
			if len(lv.HashedBits) != legacy.k || !slices.Equal(lv.HashedBits[:fresh.K()], el.Levels[li].HashedBits) {
				t.Fatalf("n=%d depth %d: hashed ledger %v, every set after the cap %v", n, lv.Depth, lv.HashedBits, el.Levels[li].HashedBits)
			}
			surplus -= lv.HashedBits[fresh.K()]
		}
		if surplus != 0 {
			t.Fatalf("n=%d: the images differ by %d bits more than the surplus level", n, surplus)
		}
		for _, q := range workload.RandomRanges(12, sigma, 1+sigma/8, 5) {
			r := index.Range{Lo: q.Lo, Hi: q.Hi}
			for _, eps := range []float64{0.5, 1.0 / 16, 1.0 / 4096} {
				got, gst, err := old.ApproxQuery(r, eps)
				if err != nil {
					t.Fatal(err)
				}
				want, wst, err := fresh.ApproxQuery(r, eps)
				if err != nil {
					t.Fatal(err)
				}
				// The fresh build reads a dropped set's exact member in its
				// place, never more bits.
				if got.J != want.J || got.H != want.H || wst.BitsRead > gst.BitsRead || wst.BitsRead < gst.BitsRead && want.IsExact() {
					t.Fatalf("n=%d [%d,%d] eps=%g: reopened j=%d reads %d bits, fresh j=%d reads %d",
						n, q.Lo, q.Hi, eps, got.J, gst.BitsRead, want.J, wst.BitsRead)
				}
				gc, _ := got.Candidates()
				wc, _ := want.Candidates()
				if !slices.Equal(gc.Positions(), wc.Positions()) {
					t.Fatalf("n=%d [%d,%d] eps=%g: candidates differ", n, q.Lo, q.Hi, eps)
				}
			}
		}
	}

	col := workload.Zipf(5000, 64, 1.0, 1)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
	ax, err := BuildApprox(d, col, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reopen(t, d, ax, opts); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	ax.k-- // the payload holds k and the first k groups
	if _, err := reopenUnchecked(t, d, ax, opts); err == nil {
		t.Fatalf("stored k = %d below the useful %d accepted", ax.k, ax.k+1)
	}
	ax.k = maxStoredJ + 1
	for li := range ax.hmaps {
		for len(ax.hmaps[li].perJ) < ax.k {
			ax.hmaps[li].perJ = append(ax.hmaps[li].perJ, ax.hmaps[li].perJ[0])
		}
	}
	if _, err := reopenUnchecked(t, d, ax, opts); err == nil {
		t.Fatalf("stored k = %d accepted", ax.k)
	}
}

// encodeLegacyMeta writes ax's metadata the way files written before the
// node records carried the member directory did: the member lengths inline
// in the level headers, every node's block after A, and — when orders is
// set — the internal members' exp-Golomb orders trailing the payload. Such a
// file's tree has legacyHeight; ax's must have the same height. Its leaves
// were gamma-coded, so the leaves' orders of ax are lost, and ax's image has
// no A: the slot of A's offset holds 0, which the legacy branch reads as an
// A at bit 0.
func encodeLegacyMeta(t *testing.T, ax *Approx, orders bool) []byte {
	t.Helper()
	tr := ax.tree
	if heightFor(tr.n, tr.C) != legacyHeight(tr.n, tr.C) {
		t.Fatalf("n = %d, c = %d: the legacy height differs", tr.n, tr.C)
	}
	var e container.Encoder
	for a := 0; a < tr.sigma; a++ {
		e.U(uint64(tr.prefix[a+1] - tr.prefix[a]))
	}
	e.U(uint64(len(ax.levels)))
	for _, lv := range ax.levels {
		e.U(uint64(lv.depth))
		e.U(uint64(len(lv.members)))
		e.U(uint64(lv.members[0].ext.Off))
		for _, m := range lv.members {
			e.U(uint64(m.ext.Bits))
		}
	}
	e.U(uint64(ax.aExt.Off))
	pos := recordPos(ax.Optimal)
	e.U(uint64(len(pos)))
	for _, p := range pos {
		e.U(uint64(p / int64(ax.disk.BlockBits())))
	}
	e.U(uint64(ax.layout.nblocks))
	e.U(uint64(ax.k))
	// Its hashed sets were gamma-coded: their cardWords carry no order flag.
	gammaSets := &Approx{Optimal: ax.Optimal, k: ax.k}
	for _, hl := range ax.hmaps {
		perJ := slices.Clone(hl.perJ)
		for j := range perJ {
			perJ[j].orders = nil
		}
		gammaSets.hmaps = append(gammaSets.hmaps, hashLevel{perJ: perJ})
	}
	gammaSets.encodeHashedGroups(&e, ax.k)
	for _, lv := range ax.levels {
		for _, m := range lv.members {
			if orders && m.internal {
				e.U(uint64(m.k))
			}
		}
	}
	return e.Bytes()
}

// TestOpenApproxMemberOrders: the exp-Golomb orders of the members, leaves
// and internal ones, survive a round trip through the node records, and
// those of the internal members through the trailing list of a legacy file,
// which reads every leaf as gamma-coded; a legacy file without the list reads
// every member as gamma-coded, one whose list is cut short is corrupt, and so
// is one with an order above gamma.MaxOrder.
func TestOpenApproxMemberOrders(t *testing.T) {
	opts := ApproxOptions{Seed: 42}
	col := workload.Zipf(20000, 64, 1.0, 9)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
	// Every hashed set stored, as in the files that took the legacy layout:
	// every payload here is read as revision 0.
	ax, err := buildApproxReference(d, col, opts)
	if err != nil {
		t.Fatal(err)
	}
	d, ax = withLayout(t, ax)
	var want, leaves []uint8
	for _, lv := range ax.levels {
		for _, m := range lv.members {
			if m.internal {
				want = append(want, m.k)
			} else {
				leaves = append(leaves, m.k)
			}
		}
	}
	if slices.Max(want) == 0 || slices.Max(want) >= 128 || slices.Max(leaves) == 0 {
		t.Fatalf("orders %v, leaves' %v: want one above 0 in each, each a one-byte varint", want, leaves)
	}
	open := func(payload []byte) (*Approx, error) {
		dec := container.NewDecoder(payload)
		got, err := OpenApprox(d, ax.Sigma(), 0, opts, dec)
		if err == nil {
			err = dec.Finish()
		}
		return got, err
	}
	// requireOrders holds got's members to the build's, with every order 0
	// under gamma and every leaf's under gammaLeaves.
	requireOrders := func(what string, got *Approx, gamma, gammaLeaves bool) {
		t.Helper()
		for li, lv := range got.levels {
			for mi, m := range lv.members {
				w := ax.levels[li].members[mi]
				if gamma || (gammaLeaves && !w.internal) {
					w.k = 0
				}
				if m != w {
					t.Fatalf("%s: level %d member %+v, built %+v", what, li, m, w)
				}
			}
		}
	}
	got, err := reopenAt(t, d, ax, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	requireOrders("records", got, false, false)
	for _, q := range workload.RandomRanges(20, 64, 9, 3) {
		r := index.Range{Lo: q.Lo, Hi: q.Hi}
		a, _, err := got.Query(r)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a.Positions(), workload.BruteForce(col, q)) {
			t.Fatalf("%v: reopened index answers wrongly", q)
		}
	}

	meta := encodeLegacyMeta(t, ax, true)
	old, err := open(meta)
	if err != nil {
		t.Fatal(err)
	}
	requireOrders("legacy", old, false, true)
	var members int64
	for _, lv := range ax.levels {
		members += int64(len(lv.members))
	}
	if got, want := old.SizeBits(), ax.SizeBits()+members*legacyRecordBits+int64(ax.Sigma()+1)*64+old.hashedDirBits()-ax.hashedDirBits(); got != want {
		t.Fatalf("legacy SizeBits %d, want %d: the metadata directory at 128 bits per member and A", got, want)
	}
	if l := old.SpaceLedger(); l.DirBits != old.hashedDirBits()+members*legacyRecordBits {
		t.Fatalf("legacy ledger DirBits %d, charges no metadata directory", l.DirBits)
	}
	if old.layout.nblocks != ax.layout.nblocks || old.layout.recordBits() != legacyRecordBits {
		t.Fatalf("legacy layout: %d blocks of %d-bit records, want %d of %d", old.layout.nblocks, old.layout.recordBits(), ax.layout.nblocks, legacyRecordBits)
	}
	if old, err = open(encodeLegacyMeta(t, ax, false)); err != nil {
		t.Fatal(err)
	}
	requireOrders("legacy without orders", old, true, true)
	if _, err := open(meta[:len(meta)-1]); !errors.Is(err, container.ErrCorrupt) {
		t.Fatalf("order list cut short: error %v, want ErrCorrupt", err)
	}
	bad := slices.Clone(meta)
	bad[len(bad)-1] = gamma.MaxOrder + 1
	if _, err := open(bad); !errors.Is(err, container.ErrCorrupt) {
		t.Fatalf("order %d: error %v, want ErrCorrupt", gamma.MaxOrder+1, err)
	}
	bad[len(bad)-1] = gamma.MaxOrder
	if _, err := open(bad); err != nil {
		t.Fatalf("order %d: %v", gamma.MaxOrder, err)
	}
}

// TestHashedSetOrders: a build codes some hashed sets at hashedOrder's order
// and falls back to gamma for others that order would code longer; a reopen
// reads every set's order back from its cardWord, and a word that flags a
// set whose derived order is 0 is rejected.
func TestHashedSetOrders(t *testing.T) {
	opts := ApproxOptions{Seed: 42}
	col := workload.Zipf(20000, 64, 1.0, 9)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
	ax, err := BuildApprox(d, col, opts)
	if err != nil {
		t.Fatal(err)
	}
	var derived, fallback int
	for li, hl := range ax.hmaps {
		for j, arr := range hl.perJ[:ax.k] {
			for i, k := range arr.orders {
				dk := hashedOrder(1<<(j+1), arr.cards[i], uint(ax.levels[li].members[i].k))
				switch {
				case k > 0 && uint(k) != dk:
					t.Fatalf("level %d h_%d set %d at order %d, derived %d", li, j+1, i, k, dk)
				case k > 0:
					derived++
				case dk > 0:
					fallback++
				}
			}
		}
	}
	if derived == 0 || fallback == 0 {
		t.Fatalf("%d sets at their derived order, %d falling back to gamma: want some of each", derived, fallback)
	}
	got, err := reopen(t, d, ax, opts)
	if err != nil {
		t.Fatal(err)
	}
	for li, hl := range ax.hmaps {
		for j, arr := range hl.perJ[:ax.k] {
			g := got.hmaps[li].perJ[j]
			if !slices.Equal(g.orders, arr.orders) || !slices.Equal(g.cards, arr.cards) {
				t.Fatalf("level %d h_%d: reopened orders %v cards %v, built %v %v", li, j+1, g.orders, g.cards, arr.orders, arr.cards)
			}
		}
	}
	var arr hashArray
	// Two values in a universe of 4 derive order 0, so the flag is corrupt.
	if err := arr.setCard(2<<1|1, true, 2, member{end: 100, k: gamma.MaxOrder}); err == nil {
		t.Fatal("a set flagged at derived order 0 opened")
	}
}

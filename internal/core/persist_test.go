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

// reopen round-trips ax's metadata through EncodeMeta and OpenApprox over the
// device it was built on.
func reopen(t *testing.T, d *iomodel.Disk, ax *Approx, opts ApproxOptions) (*Approx, error) {
	t.Helper()
	var e container.Encoder
	if err := ax.EncodeMeta(&e); err != nil {
		t.Fatal(err)
	}
	dec := container.NewDecoder(e.Bytes())
	got, err := OpenApprox(d, ax.Sigma(), opts, dec)
	if err == nil {
		err = dec.Finish()
	}
	return got, err
}

// TestOpenApproxStoredLevels covers the loader's side of the level cap: what a
// build before the cap laid down (one level more than is useful, at every n)
// opens, reports the surplus in its ledger, never selects it and answers like
// a fresh build; a stored count below the useful one or above maxStoredJ is
// refused.
func TestOpenApproxStoredLevels(t *testing.T) {
	opts := ApproxOptions{Seed: 42}
	for _, n := range []int{3, 16, 300, 5000, 70000} {
		sigma := min(64, n)
		col := workload.Zipf(n, sigma, 1.0, int64(n))
		ld := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
		legacy, err := buildApproxReferenceK(ld, col, opts, legacyMaxJ)
		if err != nil {
			t.Fatal(err)
		}
		old, err := reopen(t, ld, legacy, opts)
		if err != nil {
			t.Fatalf("n=%d: legacy metadata (k=%d stored): %v", n, legacy.k, err)
		}
		fresh, err := BuildApprox(iomodel.NewDisk(iomodel.Config{BlockBits: 2048}), col, opts)
		if err != nil {
			t.Fatal(err)
		}
		if old.K() != fresh.K() || legacy.k != fresh.K()+1 {
			t.Fatalf("n=%d: reopened K() = %d, fresh %d, stored %d", n, old.K(), fresh.K(), legacy.k)
		}
		ol, fl := old.SpaceLedger(), fresh.SpaceLedger()
		if ol.ResidentBits() != ol.ImageBits || fl.ResidentBits() != fl.ImageBits {
			t.Fatalf("n=%d: ledgers do not sum to their images: %d/%d, %d/%d",
				n, ol.ResidentBits(), ol.ImageBits, fl.ResidentBits(), fl.ImageBits)
		}
		surplus := ol.ImageBits - fl.ImageBits // what the fresh build no longer lays down
		for li, lv := range ol.Levels {
			if len(lv.HashedBits) != legacy.k || !slices.Equal(lv.HashedBits[:fresh.K()], fl.Levels[li].HashedBits) {
				t.Fatalf("n=%d depth %d: hashed ledger %v, fresh %v", n, lv.Depth, lv.HashedBits, fl.Levels[li].HashedBits)
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
				if got.J != want.J || got.H != want.H || gst.BitsRead != wst.BitsRead {
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
	ax.k-- // EncodeMeta writes k and the first k groups
	if _, err := reopen(t, d, ax, opts); err == nil {
		t.Fatalf("stored k = %d below the useful %d accepted", ax.k, ax.k+1)
	}
	ax.k = maxStoredJ + 1
	for li := range ax.hmaps {
		for len(ax.hmaps[li].perJ) < ax.k {
			ax.hmaps[li].perJ = append(ax.hmaps[li].perJ, ax.hmaps[li].perJ[0])
		}
	}
	if _, err := reopen(t, d, ax, opts); err == nil {
		t.Fatalf("stored k = %d accepted", ax.k)
	}
}

// TestOpenApproxMemberOrders: the exp-Golomb orders of the internal members
// trail the static metadata and survive a round trip; a list cut short is
// corrupt, and so is an order above gamma.MaxOrder.
func TestOpenApproxMemberOrders(t *testing.T) {
	opts := ApproxOptions{Seed: 42}
	col := workload.Zipf(20000, 64, 1.0, 9)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
	ax, err := BuildApprox(d, col, opts)
	if err != nil {
		t.Fatal(err)
	}
	var want []uint8
	for _, lv := range ax.levels {
		for _, m := range lv.members {
			if m.internal {
				want = append(want, m.k)
			}
		}
	}
	if slices.Max(want) == 0 || slices.Max(want) >= 128 {
		t.Fatalf("orders %v: want one above 0, each a one-byte varint", want)
	}
	got, err := reopen(t, d, ax, opts)
	if err != nil {
		t.Fatal(err)
	}
	for li, lv := range got.levels {
		for mi, m := range lv.members {
			if w := ax.levels[li].members[mi]; m.k != w.k || m.internal != w.internal {
				t.Fatalf("level %d member %d: reopened at order %d (internal %v), built at %d (%v)", li, mi, m.k, m.internal, w.k, w.internal)
			}
		}
	}
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

	var e container.Encoder
	if err := ax.EncodeMeta(&e); err != nil {
		t.Fatal(err)
	}
	meta := e.Bytes()
	open := func(payload []byte) error {
		_, err := OpenApprox(d, ax.Sigma(), opts, container.NewDecoder(payload))
		return err
	}
	if err := open(meta[:len(meta)-1]); !errors.Is(err, container.ErrCorrupt) {
		t.Fatalf("order list cut short: error %v, want ErrCorrupt", err)
	}
	bad := slices.Clone(meta)
	bad[len(bad)-1] = gamma.MaxOrder + 1
	if err := open(bad); !errors.Is(err, container.ErrCorrupt) {
		t.Fatalf("order %d: error %v, want ErrCorrupt", gamma.MaxOrder+1, err)
	}
	bad[len(bad)-1] = gamma.MaxOrder
	if err := open(bad); err != nil {
		t.Fatalf("order %d: %v", gamma.MaxOrder, err)
	}
}

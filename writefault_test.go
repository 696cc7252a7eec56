package secidx

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/iomodel"
)

// TestWriteFaultBreaksHandle: an armed write fault fails the update it hits
// with ErrFailedWrite instead of crashing the process, and breaks the handle —
// the structure may be part-mutated, so every later update and every query
// of a non-concurrent handle fails. The append cases cross a global rebuild,
// whose chain rewrites meet the faults too; the dynamic case writes leaves and
// buffers of its point indexes. A concurrent handle keeps answering from its
// last published epoch.
func TestWriteFaultBreaksHandle(t *testing.T) {
	const sigma = 16
	key := func(i int) uint32 { return uint32(i * 7 % sigma) }
	column := func(n int) []uint32 {
		x := make([]uint32, n)
		for i := range x {
			x[i] = key(i)
		}
		return x
	}
	// failOnce runs update(0), update(1), … until the first failure, which
	// must wrap ErrFailedWrite, then expects the next few updates to fail
	// too; it returns the number of updates that succeeded.
	failOnce := func(t *testing.T, ops int, update func(i int) error) int {
		t.Helper()
		for i := 0; i < ops; i++ {
			err := update(i)
			if err == nil {
				continue
			}
			if !errors.Is(err, iomodel.ErrFailedWrite) {
				t.Fatalf("update %d failed with %v, want ErrFailedWrite", i, err)
			}
			for j := i + 1; j < min(i+6, ops); j++ {
				if err := update(j); err == nil {
					t.Fatalf("update %d succeeded on a handle broken by update %d", j, i)
				}
			}
			return i
		}
		t.Fatalf("no write fault hit in %d updates", ops)
		return ops
	}

	for _, buffered := range []bool{false, true} {
		mode := map[bool]string{false: "append-direct", true: "append-buffered"}[buffered]
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", mode, seed), func(t *testing.T) {
				const n, disarmed = 2000, 2015
				ix, err := BuildAppend(column(n), sigma, Options{
					Buffered: buffered,
					Faults:   &FaultConfig{Seed: seed, FailedWritePer10k: 2000},
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := n; i < n+disarmed; i++ {
					if _, err := ix.Append(key(i)); err != nil {
						t.Fatalf("disarmed append %d: %v", i, err)
					}
				}
				ix.ArmFaults()
				failOnce(t, 40, func(i int) error {
					_, err := ix.Append(key(n + disarmed + i))
					return err
				})
				if _, _, err := ix.Query(0, sigma-1); err == nil {
					t.Fatal("query of a broken handle succeeded")
				}
			})
		}
	}

	t.Run("dynamic", func(t *testing.T) {
		const n = 5000
		ix, err := BuildDynamic(column(n), sigma, Options{
			Faults: &FaultConfig{Seed: 1, FailedWritePer10k: 10000},
		})
		if err != nil {
			t.Fatal(err)
		}
		ix.ArmFaults()
		failOnce(t, n, func(i int) error {
			_, err := ix.Change(int64(i), uint32(i%sigma))
			return err
		})
		if _, err := ix.Delete(0); err == nil {
			t.Fatal("delete on a broken handle succeeded")
		}
		if _, _, err := ix.Query(0, sigma-1); err == nil {
			t.Fatal("query of a broken handle succeeded")
		}
	})

	t.Run("dynamic-concurrent", func(t *testing.T) {
		const n = 5000
		ix, err := BuildDynamic(column(n), sigma, Options{
			Concurrent: true,
			Faults:     &FaultConfig{Seed: 1, FailedWritePer10k: 10000},
		})
		if err != nil {
			t.Fatal(err)
		}
		twin, err := BuildDynamic(column(n), sigma, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ix.ArmFaults()
		applied := failOnce(t, n, func(i int) error {
			_, err := ix.Change(int64(i), uint32(i%sigma))
			return err
		})
		for i := 0; i < applied; i++ {
			if _, err := twin.Change(int64(i), uint32(i%sigma)); err != nil {
				t.Fatal(err)
			}
		}
		for ch := uint32(0); ch < sigma; ch++ {
			got, _, err := ix.Query(ch, ch)
			if err != nil {
				t.Fatalf("query %d of the last published epoch: %v", ch, err)
			}
			want, _, err := twin.Query(ch, ch)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRows(t, fmt.Sprintf("key %d", ch), got, want)
		}
	})
}

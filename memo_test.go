package secidx

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/cbitmap"
	"repro/internal/workload"
)

// Tests of the validation memo: a read-only handle validates each member's
// bits the first time a query reads them and afterwards replays them without
// a scan — but only in sessions whose bits are the device's stable bits.

// sameOutcome fails unless two handles answered with the same bytes or
// failed with the same error.
func sameOutcome(t *testing.T, label string, a, b []*Result, ea, eb error) {
	t.Helper()
	if (ea == nil) != (eb == nil) || (ea != nil && ea.Error() != eb.Error()) {
		t.Fatalf("%s: warm handle returned error %v, cold handle %v", label, ea, eb)
	}
	for i := range a {
		if ea == nil && !cbitmap.Equal(a[i].bm, b[i].bm) {
			t.Fatalf("%s: answer %d differs between the warm and the cold handle", label, i)
		}
	}
}

// openPair writes a container with write and opens it twice on the same
// fault schedule.
func openPair(t *testing.T, write func(string) error, fc FaultConfig) (warm, cold *Opened) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.secidx")
	if err := write(path); err != nil {
		t.Fatal(err)
	}
	var ops [2]*Opened
	for i := range ops {
		op, err := OpenFile(path, OpenOptions{Faults: &fc})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { op.Close() })
		ops[i] = op
	}
	return ops[0], ops[1]
}

// TestValidationMemoFaultDifferential warms one of two pread handles on the
// same container and fault schedule over every key with faults disarmed,
// leaves the other cold, then arms silent corruption on both: every exact,
// batched and sharded query must answer with the same bytes, or fail with the
// same error, on both. A session served a flipped bit must validate what it
// read, as the cold handle does, instead of replaying what the warm handle
// proved about the unflipped bits.
func TestValidationMemoFaultDifferential(t *testing.T) {
	const sigma = 64
	data := randColumn(20000, sigma, 301)
	opts := Options{BlockBits: 2048, Seed: 5}
	fc := FaultConfig{Seed: 31, CorruptPer10k: 1500}
	ix, err := Build(data, sigma, opts)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := BuildSharded(data, sigma, ShardOptions{Options: opts, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	warm, cold := openPair(t, ix.WriteFile, fc)
	warmS, coldS := openPair(t, sx.WriteFile, fc)

	for c := uint32(0); c < sigma; c++ {
		for _, q := range []func(lo, hi uint32) (*Result, Stats, error){warm.Static.Query, warmS.Sharded.Query} {
			got, _, err := q(c, c)
			if err != nil {
				t.Fatalf("warming key %d: %v", c, err)
			}
			if !slices.Equal(got.Rows(), bruteRange(data, c, c)) {
				t.Fatalf("warming key %d: wrong rows", c)
			}
		}
	}
	for _, arm := range []func(){warm.Static.ArmFaults, cold.Static.ArmFaults, warmS.Sharded.ArmFaults, coldS.Sharded.ArmFaults} {
		arm()
	}

	ranges := chaosRanges(150, sigma, 302)
	for c := uint32(0); c < sigma; c++ {
		ranges = append(ranges, Range{Lo: c, Hi: c})
	}
	failed, answered := 0, 0
	one := func(label string, r Range, qw, qc func(lo, hi uint32) (*Result, Stats, error)) {
		a, _, ea := qw(r.Lo, r.Hi)
		b, _, eb := qc(r.Lo, r.Hi)
		sameOutcome(t, fmt.Sprintf("%s [%d,%d]", label, r.Lo, r.Hi), []*Result{a}, []*Result{b}, ea, eb)
		if eb != nil {
			failed++
		} else {
			answered++
		}
	}
	for _, r := range ranges {
		one("Query", r, warm.Static.Query, cold.Static.Query)
		one("sharded Query", r, warmS.Sharded.Query, coldS.Sharded.Query)
	}
	for i := 0; i+8 <= len(ranges); i += 8 {
		batch := ranges[i : i+8]
		a, _, ea := warm.Static.QueryBatch(batch)
		b, _, eb := cold.Static.QueryBatch(batch)
		sameOutcome(t, fmt.Sprintf("QueryBatch %d", i), a, b, ea, eb)
		a, _, ea = warmS.Sharded.QueryBatch(batch)
		b, _, eb = coldS.Sharded.QueryBatch(batch)
		sameOutcome(t, fmt.Sprintf("sharded QueryBatch %d", i), a, b, ea, eb)
	}
	if failed == 0 || answered == 0 {
		t.Fatalf("%d queries failed and %d answered: the schedule must do both for the differential to mean anything", failed, answered)
	}
}

// TestValidationMemoConcurrent races exact, batched and sharded queries on
// cold pread and mmap handles while their memos fill: every answer must be
// the column's.
func TestValidationMemoConcurrent(t *testing.T) {
	const sigma, workers = 48, 8
	data := randColumn(12000, sigma, 303)
	opts := Options{BlockBits: 2048}
	ix, err := Build(data, sigma, opts)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := BuildSharded(data, sigma, ShardOptions{Options: opts, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	static, sharded := filepath.Join(dir, "static.secidx"), filepath.Join(dir, "sharded.secidx")
	if err := ix.WriteFile(static); err != nil {
		t.Fatal(err)
	}
	if err := sx.WriteFile(sharded); err != nil {
		t.Fatal(err)
	}
	ranges := chaosRanges(40, sigma, 304)
	for c := uint32(0); c < sigma; c++ {
		ranges = append(ranges, Range{Lo: c, Hi: c})
	}
	for _, mode := range []FileMode{ModePread, ModeMmap} {
		st, err := OpenFile(static, OpenOptions{Mode: mode})
		if err != nil {
			t.Skipf("mode %d unavailable: %v", mode, err)
		}
		sh, err := OpenFile(sharded, OpenOptions{Mode: mode})
		if err != nil {
			st.Close()
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- raceQueries(data, st.Static, sh.Sharded, ranges, w)
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Errorf("mode %d: %v", mode, err)
			}
		}
		st.Close()
		sh.Close()
	}
}

// raceQueries runs every range through Query, sharded Query and, eight at a
// time, QueryBatch, starting at a worker-dependent offset, and checks each
// answer against the column.
func raceQueries(data []uint32, ix *Index, sx *ShardedIndex, ranges []Range, w int) error {
	check := func(op string, r Range, res *Result, err error) error {
		if err != nil {
			return fmt.Errorf("%s [%d,%d]: %v", op, r.Lo, r.Hi, err)
		}
		if !slices.Equal(res.Rows(), bruteRange(data, r.Lo, r.Hi)) {
			return fmt.Errorf("%s [%d,%d]: wrong rows", op, r.Lo, r.Hi)
		}
		return nil
	}
	for i := range ranges {
		r := ranges[(i+w*7)%len(ranges)]
		res, _, err := ix.Query(r.Lo, r.Hi)
		if err := check("Query", r, res, err); err != nil {
			return err
		}
		res, _, err = sx.Query(r.Lo, r.Hi)
		if err := check("sharded Query", r, res, err); err != nil {
			return err
		}
		if i%8 == 7 {
			batch := ranges[i-7 : i+1]
			out, _, err := ix.QueryBatch(batch)
			for j, r := range batch {
				var res *Result
				if err == nil {
					res = out[j]
				}
				if err := check("QueryBatch", r, res, err); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// BenchmarkPointQueryFile times point queries, every key in turn, on a pread
// handle over a zipf column shaped like the point-pread workload's (n = 2^19,
// σ = 1024, θ = 1): cold opens a fresh handle for every pass over the keys,
// warm queries a handle that has answered every key once, and flipped arms
// silent corruption of every block on such a handle, so every session is
// served a flipped bit and validates what it reads.
func BenchmarkPointQueryFile(b *testing.B) {
	const n, sigma = 1 << 19, 1024
	col := workload.Zipf(n, sigma, 1.0, 42)
	mem, err := Build(col.X, sigma, Options{})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "point.secidx")
	if err := mem.WriteFile(path); err != nil {
		b.Fatal(err)
	}
	open := func(b *testing.B, fc *FaultConfig) *Opened {
		op, err := OpenFile(path, OpenOptions{Faults: fc})
		if err != nil {
			b.Fatal(err)
		}
		return op
	}
	warmed := func(b *testing.B, fc *FaultConfig) *Opened {
		op := open(b, fc)
		for c := uint32(0); c < sigma; c++ {
			if _, _, err := op.Static.Query(c, c); err != nil {
				b.Fatal(err)
			}
		}
		return op
	}
	run := func(b *testing.B, ix func(i int) *Index) {
		failed := 0
		for i := range b.N {
			c := uint32(i % sigma)
			if _, _, err := ix(i).Query(c, c); err != nil {
				failed++
			}
		}
		b.ReportMetric(float64(failed)/float64(b.N), "failed/op")
	}
	b.Run("cold", func(b *testing.B) {
		var op *Opened
		run(b, func(i int) *Index {
			if i%sigma == 0 {
				b.StopTimer()
				if op != nil {
					op.Close()
				}
				op = open(b, nil)
				b.StartTimer()
			}
			return op.Static
		})
		op.Close()
	})
	b.Run("warm", func(b *testing.B) {
		op := warmed(b, nil)
		defer op.Close()
		b.ResetTimer()
		run(b, func(int) *Index { return op.Static })
	})
	b.Run("flipped", func(b *testing.B) {
		op := warmed(b, &FaultConfig{Seed: 1, CorruptPer10k: 10000})
		defer op.Close()
		op.Static.ArmFaults()
		b.ResetTimer()
		run(b, func(int) *Index { return op.Static })
	})
}

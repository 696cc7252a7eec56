package secidx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/cbitmap"
	"repro/internal/iomodel"
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
		// eps 0.9 sends the narrowest ranges down the hashed branch and the
		// rest down the exact fallback; either answer is a superset.
		ares, _, err := ix.ApproxQuery(r.Lo, r.Hi, 0.9)
		if err != nil {
			return fmt.Errorf("ApproxQuery [%d,%d]: %v", r.Lo, r.Hi, err)
		}
		for _, row := range bruteRange(data, r.Lo, r.Hi) {
			if !ares.Contains(row) {
				return fmt.Errorf("ApproxQuery [%d,%d]: row %d missing", r.Lo, r.Hi, row)
			}
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

// TestValidationMemoBuiltHandles: a built Index and a built three-shard
// ShardedIndex seal their devices, so a write fails and every session is
// stable: after a query, the memo vouches for every member it read, and the
// repeated query replays them with the same answer, which is the column's.
// With silent corruption armed, a warmed handle answers as a cold one does,
// and every failure is a cbitmap.ErrCorrupt.
func TestValidationMemoBuiltHandles(t *testing.T) {
	const sigma = 64
	data := randColumn(20000, sigma, 305)
	ranges := chaosRanges(60, sigma, 306)
	for c := uint32(0); c < sigma; c++ {
		ranges = append(ranges, Range{Lo: c, Hi: c})
	}
	build := func(fc *FaultConfig) map[string]*static {
		opts := Options{BlockBits: 2048, Seed: 5, Faults: fc}
		ix, err := Build(data, sigma, opts)
		if err != nil {
			t.Fatal(err)
		}
		sx, err := BuildSharded(data, sigma, ShardOptions{Options: opts, Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		return map[string]*static{"Index": &ix.static, "ShardedIndex": &sx.static}
	}
	rowsOK := func(r Range, res *Result) bool { return slices.Equal(res.Rows(), bruteRange(data, r.Lo, r.Hi)) }

	for name, st := range build(nil) {
		for i, p := range st.sx.Parts() {
			tc := p.Disk.NewTouch()
			err := tc.WriteBits(0, 0, 1)
			tc.Close()
			if !errors.Is(err, iomodel.ErrReadOnly) {
				t.Fatalf("%s shard %d: write returned %v, want iomodel.ErrReadOnly", name, i, err)
			}
		}
		for _, r := range ranges {
			first, _, err := st.Query(r.Lo, r.Hi)
			if err != nil || !rowsOK(r, first) {
				t.Fatalf("%s [%d,%d]: error %v or wrong rows", name, r.Lo, r.Hi, err)
			}
			read, known, err := st.remembered(r)
			if err != nil {
				t.Fatal(err)
			}
			if known != read {
				t.Fatalf("%s [%d,%d]: the memo vouches for %d of the %d members the query read", name, r.Lo, r.Hi, known, read)
			}
			again, _, err := st.Query(r.Lo, r.Hi)
			if err != nil || !cbitmap.Equal(first.bm, again.bm) {
				t.Fatalf("%s [%d,%d]: replayed query returned error %v or other bytes", name, r.Lo, r.Hi, err)
			}
		}
		for i := 0; i+8 <= len(ranges); i += 8 {
			out, _, err := st.QueryBatch(ranges[i : i+8])
			if err != nil {
				t.Fatalf("%s QueryBatch %d: %v", name, i, err)
			}
			for j, r := range ranges[i : i+8] {
				if !rowsOK(r, out[j]) {
					t.Fatalf("%s QueryBatch %d [%d,%d]: wrong rows", name, i, r.Lo, r.Hi)
				}
			}
		}
	}

	// Silent corruption: a warm handle, half of whose memo was filled on
	// unflipped bits, and a cold one, built on the same schedule, answer
	// every query alike. A flipped gap code can decode to a well-formed
	// wrong set that no validation catches, so an answer is compared with
	// the cold handle's, not with the column's.
	fc := FaultConfig{Seed: 31, CorruptPer10k: 1500}
	warm, cold := build(&fc), build(&fc)
	failed, answered, wrong := 0, 0, 0
	for name, st := range warm {
		for _, r := range ranges[:len(ranges)/2] {
			if res, _, err := st.Query(r.Lo, r.Hi); err != nil || !rowsOK(r, res) {
				t.Fatalf("%s [%d,%d] disarmed: error %v or wrong rows", name, r.Lo, r.Hi, err)
			}
		}
		st.ArmFaults()
		cold[name].ArmFaults()
		for _, r := range ranges {
			a, _, ea := st.Query(r.Lo, r.Hi)
			b, _, eb := cold[name].Query(r.Lo, r.Hi)
			sameOutcome(t, fmt.Sprintf("%s [%d,%d]", name, r.Lo, r.Hi), []*Result{a}, []*Result{b}, ea, eb)
			switch {
			case ea != nil && !errors.Is(ea, cbitmap.ErrCorrupt):
				t.Fatalf("%s [%d,%d]: corruption surfaced as %v, want cbitmap.ErrCorrupt", name, r.Lo, r.Hi, ea)
			case ea != nil:
				failed++
			case rowsOK(r, a):
				answered++
			default:
				wrong++
			}
		}
	}
	t.Logf("armed: %d failed, %d answered right, %d answered wrong with no error", failed, answered, wrong)
	if failed == 0 || answered == 0 {
		t.Fatalf("%d queries failed and %d answered right: the schedule must do both", failed, answered)
	}
}

// pointAnswersDigest is the FNV-64a digest pointAnswers computes over
// every key's answer, as the ordered concatenation answered them before it
// became one kernel pass (stream per member, Builder, drain, final copy).
const pointAnswersDigest = 0x4a45a5e30358bad4

// pointAnswers queries every key of a static handle once, in key order, and
// returns the FNV-64a digest of the answers' orders, cardinalities, bit
// lengths and positions, which fix each answer's bytes (a gap stream at a
// given order is canonical), and how many keys read several members and
// answered at an order above gamma. After each key's query, the handle's
// memo must vouch for every member the key's plan reads, and the rows must
// be the column's.
func pointAnswers(t *testing.T, label string, st *static, data []uint32, sigma int) (digest uint64, multi, ordered int) {
	t.Helper()
	h := fnv.New64a()
	var word [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
	}
	for c := uint32(0); c < uint32(sigma); c++ {
		res, _, err := st.Query(c, c)
		if err != nil {
			t.Fatalf("%s key %d: %v", label, c, err)
		}
		rows := res.bm.Positions()
		if !slices.Equal(rows, bruteRange(data, c, c)) {
			t.Fatalf("%s key %d: wrong rows", label, c)
		}
		read, known, err := st.remembered(Range{Lo: c, Hi: c})
		if err != nil {
			t.Fatal(err)
		}
		if known != read {
			t.Fatalf("%s key %d: the memo vouches for %d of the %d members the query read", label, c, known, read)
		}
		if read > 1 {
			multi++
		}
		if res.bm.Order() > 0 {
			ordered++
		}
		put(int64(c))
		put(int64(res.bm.Order()))
		put(res.bm.Card())
		put(int64(res.bm.SizeBits()))
		for _, p := range rows {
			put(p)
		}
	}
	return h.Sum64(), multi, ordered
}

// TestPointQueryConcatMemo: on a built handle and on a reopened pread
// handle, cold then warm, every Query(c, c) answers with the bytes the
// ordered concatenation gave before it became one kernel pass, pinned as
// pointAnswersDigest; and the first query of each key leaves the memo
// vouching for every member its plan reads, which the warm pass replays.
func TestPointQueryConcatMemo(t *testing.T) {
	const n, sigma = 1 << 15, 256
	data := workload.Zipf(n, sigma, 1.0, 50).X
	ix, err := Build(data, sigma, Options{BlockBits: 4096, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "point.secidx")
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	op, err := OpenFile(path, OpenOptions{Mode: ModePread})
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	for _, h := range []struct {
		name string
		st   *static
	}{{"built", &ix.static}, {"pread", &op.Static.static}} {
		for _, pass := range []string{"cold", "warm"} {
			label := h.name + " " + pass
			got, multi, ordered := pointAnswers(t, label, h.st, data, sigma)
			if got != pointAnswersDigest {
				t.Fatalf("%s: answers digest %#x, the parent's %#x", label, got, uint64(pointAnswersDigest))
			}
			if multi == 0 || ordered == 0 {
				t.Fatalf("%s: %d keys read several members, %d answered above gamma: the column must give both", label, multi, ordered)
			}
		}
	}
}

// TestWarmPointQueryAllocs pins what a warm point query on a reopened pread
// handle allocates: the answer's buffer and Bitmap, and the Result that wraps
// it. Nothing between the handle and the executor reaches the heap: the range
// and the answer travel in slots on the caller's stack, and a one-shard
// index runs its shard on the caller's goroutine.
func TestWarmPointQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n, sigma = 1 << 15, 256
	data := workload.Zipf(n, sigma, 1.0, 50).X
	ix, err := Build(data, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "point.secidx")
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	op, err := OpenFile(path, OpenOptions{Mode: ModePread})
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	const warmPointAllocs = 3
	for c := uint32(0); c < sigma; c++ {
		allocs := testing.AllocsPerRun(5, func() { // the run before the count warms the key
			if _, _, err := op.Static.Query(c, c); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > warmPointAllocs {
			t.Fatalf("warm point query of key %d allocated %.1f times, want <= %d", c, allocs, warmPointAllocs)
		}
	}
}

// BenchmarkPointQueryFile times point queries, every key in turn, on a pread
// handle over a zipf column shaped like the point-pread workload's (n = 2^19,
// σ = 1024, θ = 1): cold opens a fresh handle for every pass over the keys,
// warm queries a handle that has answered every key once, and flipped arms
// silent corruption of every block on such a handle, so every session is
// served a flipped bit and validates what it reads. blockIO/op is the block
// reads a point query charges, each one a pread on this handle.
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
		failed, reads := 0, 0
		for i := range b.N {
			c := uint32(i % sigma)
			_, st, err := ix(i).Query(c, c)
			if err != nil {
				failed++
			}
			reads += st.Reads
		}
		b.ReportMetric(float64(failed)/float64(b.N), "failed/op")
		b.ReportMetric(float64(reads)/float64(b.N), "blockIO/op")
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

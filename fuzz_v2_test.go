package secidx

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/workload"
)

// validContainer builds a small index of the given kind and returns its v2
// container bytes.
func validContainer(tb testing.TB, kind string) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed.secidx")
	const sigma = 16
	data := randColumn(800, sigma, 23)
	var err error
	switch kind {
	case "static":
		var ix *Index
		if ix, err = Build(data, sigma, Options{Seed: 7, BlockBits: 2048}); err == nil {
			err = ix.WriteFile(path)
		}
	case "sharded":
		var ix *ShardedIndex
		if ix, err = BuildSharded(data, sigma, ShardOptions{Shards: 2, Options: Options{BlockBits: 2048}}); err == nil {
			err = ix.WriteFile(path)
		}
	case "append":
		var ix *AppendIndex
		if ix, err = BuildAppend(data, sigma, Options{Buffered: true, BlockBits: 2048}); err == nil {
			for _, ch := range data[:50] {
				if _, err = ix.Append(ch); err != nil {
					break
				}
			}
			if err == nil {
				err = ix.WriteFile(path)
			}
		}
	case "dynamic":
		var ix *DynamicIndex
		if ix, err = BuildDynamic(data, sigma, Options{BlockBits: 2048}); err == nil {
			if _, err = ix.Delete(3); err == nil {
				err = ix.WriteFile(path)
			}
		}
	}
	if err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// recordsContainer returns a static container at 512-bit blocks, whose node
// records fill several structure blocks and carry exp-Golomb orders.
func recordsContainer(tb testing.TB) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "records.secidx")
	ix, err := Build(randColumn(3000, 64, 24), 64, Options{Seed: 7, BlockBits: 512})
	if err == nil {
		err = ix.WriteFile(path)
	}
	if err != nil {
		tb.Fatal(err)
	}
	if l := ix.SpaceLedger(); l.LayoutBits < 3*512 {
		tb.Fatalf("node records fill %d bits, want several blocks", l.LayoutBits)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// ordersContainer returns a static container in which leaves and hashed sets
// are stored at exp-Golomb orders above 0.
func ordersContainer(tb testing.TB) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "orders.secidx")
	ix, err := Build(workload.Zipf(4000, 64, 1.0, 25).X, 64, Options{Seed: 7, BlockBits: 2048})
	if err == nil {
		err = ix.WriteFile(path)
	}
	if err != nil {
		tb.Fatal(err)
	}
	codes, err := ix.PayloadUnderCodes()
	if err != nil {
		tb.Fatal(err)
	}
	var leaves, hashed core.CodeBits
	for _, l := range codes {
		leaves.Add(l.Leaves)
		for _, h := range l.Hashed {
			hashed.Add(h)
		}
	}
	if len(leaves.Orders) < 2 || len(hashed.Orders) < 2 {
		tb.Fatalf("leaves at orders %v, hashed sets at %v: want some above 0", leaves.Orders, hashed.Orders)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// rowOverflowContainer returns a static container whose manifest declares
// branching 2^21 and whose metadata, in the node-record layout, declares 16
// counts of 2^40 each: 2^44 rows, past container.MaxRows. The tree's height
// (the powers of c up to n) must not be computed from such counts — at this
// c the powers overflow an int64 — and opening must fail, not loop.
func rowOverflowContainer(tb testing.TB) []byte {
	tb.Helper()
	const sigma = 16
	opts := Options{Seed: 7, BlockBits: 2048}
	ix, err := Build(randColumn(800, sigma, 23), sigma, opts)
	if err != nil {
		tb.Fatal(err)
	}
	opts.Branching = 1 << 21
	path := filepath.Join(tb.TempDir(), "rows.secidx")
	err = writeContainer(path, container.KindStatic, func(cw *container.Writer) error {
		var e container.Encoder
		encodeManifest(&e, container.MaxRows, sigma, opts, 1)
		if err := cw.Add(container.TypeManifest, 0, e.Bytes(), 1); err != nil {
			return err
		}
		var m container.Encoder
		for range sigma {
			m.U(container.MaxRows)
		}
		m.U(0) // the node-record layout
		m.U(8) // length field width
		m.U(0) // order field width
		m.U(1) // levels
		if err := cw.Add(container.TypeStaticMeta, 0, m.Bytes(), 1); err != nil {
			return err
		}
		return addImage(cw, 0, ix.sx.Parts()[0].Disk)
	})
	if err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestOpenFileRowOverflow: a static container whose counts sum past
// container.MaxRows fails ErrCorrupt before its tree is built.
func TestOpenFileRowOverflow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rows.secidx")
	if err := os.WriteFile(path, rowOverflowContainer(t), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := OpenFile(path, OpenOptions{VerifyImages: true})
	if err == nil {
		o.Close()
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("counts summing to 2^44 rows: error %v, want ErrCorrupt", err)
	}
}

// shortDynamicContainer returns a dynamic container whose manifest and
// metadata declare 2^24 rows while the metadata carries only three: decoding
// must stop at the first missing row, not grow the string to the declared
// count.
func shortDynamicContainer(tb testing.TB) []byte {
	tb.Helper()
	const sigma, rows = 16, 1 << 24
	path := filepath.Join(tb.TempDir(), "short.secidx")
	err := writeContainer(path, container.KindDynamic, func(cw *container.Writer) error {
		var e container.Encoder
		encodeManifest(&e, rows, sigma, Options{BlockBits: 2048}, 1)
		if err := cw.Add(container.TypeManifest, 0, e.Bytes(), 1); err != nil {
			return err
		}
		var m container.Encoder
		m.U(rows)
		m.U(1)
		m.U(2)
		m.U(3)
		return cw.Add(container.TypeDynamicMeta, 0, m.Bytes(), 1)
	})
	if err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestOpenDynamicShortPayload: a dynamic container that declares far more
// rows than it carries fails ErrCorrupt, allocating what its bytes hold, not
// what its header declares (2^24 rows of 4 bytes each would be 64 MiB).
func TestOpenDynamicShortPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short.secidx")
	if err := os.WriteFile(path, shortDynamicContainer(t), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	o, err := OpenFile(path, OpenOptions{})
	runtime.ReadMemStats(&after)
	if err == nil {
		o.Close()
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("2^24 rows declared, 3 present: error %v, want ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("2^24 rows declared, 3 present: allocated %d bytes", grew)
	}
}

// FuzzLoadV2 feeds OpenFile arbitrary container bytes — seeded with valid
// files of every kind, per-shard checksum truncations, bit flips and hostile
// section lengths — and checks the untrusted-input contract: never a panic,
// allocations bounded by the bytes actually present, and every input-caused
// failure typed ErrCorrupt. Inputs that open successfully must serve a query.
func FuzzLoadV2(f *testing.F) {
	for _, kind := range []string{"static", "sharded", "append", "dynamic"} {
		good := validContainer(f, kind)
		f.Add(good)
		f.Add(good[:len(good)-7]) // truncate the final section's payload
		f.Add(good[:17])          // cut inside the first section header
		flipped := append([]byte(nil), good...)
		flipped[len(flipped)/3] ^= 0x10
		f.Add(flipped)
	}
	// A file from before PR 16: it stores one hashed level more than the
	// loader's recomputed k (mutations reach the stored-count checks).
	old, err := os.ReadFile("testdata/pr15_static.secidx")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)
	// A well-formed header whose first section declares a giant payload.
	hostile := make([]byte, 0, 64)
	hostile = append(hostile, []byte("secidx02")...)
	hostile = binary.LittleEndian.AppendUint64(hostile, 1)      // kind static
	hostile = binary.LittleEndian.AppendUint64(hostile, 1)      // type manifest
	hostile = binary.LittleEndian.AppendUint64(hostile, 0)      // shard
	hostile = binary.LittleEndian.AppendUint64(hostile, 1<<50)  // payload length
	hostile = binary.LittleEndian.AppendUint64(hostile, 0)      // pad
	hostile = binary.LittleEndian.AppendUint64(hostile, 0xbeef) // checksum
	f.Add(hostile)
	f.Add([]byte("secidx02"))
	f.Add([]byte{})
	// A static container whose node records — lengths and orders, the exact
	// directory — span several structure blocks, and one from before the
	// records held the directory (its blocks and lengths in the metadata).
	f.Add(recordsContainer(f))
	legacy, err := os.ReadFile("testdata/legacy_height_static.secidx")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	// A static container whose leaves and hashed sets carry orders, and one
	// from before they did (gamma-coded, with A, whose offset's slot is the
	// revision marker).
	f.Add(ordersContainer(f))
	pr45, err := os.ReadFile("testdata/pr45_static.secidx")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pr45)
	// Counts that sum past the row bound, at a branching whose powers overflow.
	f.Add(rowOverflowContainer(f))
	// A dynamic payload declaring far more rows than it carries.
	f.Add(shortDynamicContainer(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.secidx")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip(err)
		}
		op, err := OpenFile(path, OpenOptions{VerifyImages: true})
		if err != nil {
			// The file bytes are the only failure source here, so the typed
			// sentinel is mandatory.
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("input-caused OpenFile error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		defer op.Close()
		// Whatever opened must answer a query without panicking.
		switch {
		case op.Static != nil:
			_, _, _ = op.Static.Query(0, 3)
		case op.Sharded != nil:
			_, _, _ = op.Sharded.Query(0, 3)
		case op.Append != nil:
			_, _, _ = op.Append.Query(0, 3)
		case op.Dynamic != nil:
			_, _, _ = op.Dynamic.Query(0, 3)
		default:
			t.Fatal("OpenFile returned no index and no error")
		}
	})
}

// TestOpenFileHostileSectionBoundedAlloc declares sections whose lengths vastly
// exceed the file: Parse must reject them against the real size instead of
// allocating what the header claims.
func TestOpenFileHostileSectionBoundedAlloc(t *testing.T) {
	b := make([]byte, 0, 64)
	b = append(b, []byte("secidx02")...)
	b = binary.LittleEndian.AppendUint64(b, 1)
	b = binary.LittleEndian.AppendUint64(b, 1)     // type manifest
	b = binary.LittleEndian.AppendUint64(b, 0)     // shard
	b = binary.LittleEndian.AppendUint64(b, 1<<50) // payload length: 1 PiB
	b = binary.LittleEndian.AppendUint64(b, 0)     // pad
	b = binary.LittleEndian.AppendUint64(b, 0)     // checksum
	path := filepath.Join(t.TempDir(), "hostile.secidx")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := OpenFile(path, OpenOptions{})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile section error = %v, want ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("hostile section allocated %d bytes", grew)
	}
}

package secidx

import (
	"context"
	"errors"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/container"
)

// TestAllShardsFailedWrapsPublicShardError: the error of a degraded query
// with no healthy shard left must match the public ShardError through
// errors.As, on every entry point that can return it.
func TestAllShardsFailedWrapsPublicShardError(t *testing.T) {
	const sigma = 32
	ix, err := BuildSharded(randColumn(4000, sigma, 61), sigma, ShardOptions{
		Shards:  3,
		Options: Options{Faults: &FaultConfig{Seed: 5, PermanentPer10k: 10000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ix.ArmFaults()
	ctx := context.Background()
	check := func(label string, err error) {
		t.Helper()
		var se ShardError
		if !errors.As(err, &se) {
			t.Fatalf("%s: error %v does not match secidx.ShardError", label, err)
		}
		if se.RowEnd <= se.RowStart || se.Attempts < 1 || se.Err == nil {
			t.Errorf("%s: implausible report %+v", label, se)
		}
	}
	qo := QueryOptions{AllowPartial: true}
	_, _, _, err = ix.QueryExec(ctx, 3, 9, qo)
	check("QueryExec", err)
	_, _, _, err = ix.QueryBatchExec(ctx, []Range{{Lo: 0, Hi: 4}, {Lo: 2, Hi: 20}}, qo)
	check("QueryBatchExec", err)
	srv, err := ix.Serve(ServerConfig{AllowPartial: true, DisableBreakers: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, err = srv.Query(ctx, 3, 9)
	check("Server.Query", err)
}

// TestWriteFileRacesAppends: WriteFile on a handle other goroutines are
// appending to must write a container whose durability watermark matches
// its contents — every logged operation is one appended row, so a copy
// reopened writable must hold exactly initial+watermark rows. Under -race
// this is also the data-race check on the shared handle.
func TestWriteFileRacesAppends(t *testing.T) {
	const sigma, n0, writers, per = 16, 500, 4, 60
	initial := randColumn(n0, sigma, 62)
	built, err := BuildAppend(initial, sigma, Options{BlockBits: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"durable", "built"} {
		t.Run(mode, func(t *testing.T) {
			var ix *AppendIndex
			if mode == "durable" {
				ix = writeOpen(t, built.WriteFile, OpenOptions{
					WAL:        &WALOptions{Policy: SyncGrouped, GroupOps: 64},
					Concurrent: true,
				}).Append
			} else if ix, err = BuildAppend(initial, sigma, Options{BlockBits: 2048, Concurrent: true}); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if _, err := ix.Append(uint32((w + i) % sigma)); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			dir := t.TempDir()
			var copies []string
			for i := 0; i < 6; i++ {
				path := filepath.Join(dir, "copy"+string(rune('0'+i)))
				if err := ix.WriteFile(path); err != nil {
					t.Fatal(err)
				}
				copies = append(copies, path)
			}
			wg.Wait()
			for _, path := range copies {
				o, err := OpenFile(path, OpenOptions{WAL: &WALOptions{}})
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				rows, mark := o.Append.Len(), int64(o.LastSeq())
				o.Close()
				if mode == "durable" && rows != n0+mark {
					t.Errorf("%s holds %d rows at watermark %d, want %d", path, rows, mark, n0+mark)
				}
				if rows < n0 || rows > n0+writers*per {
					t.Errorf("%s holds %d rows, outside [%d,%d]", path, rows, n0, n0+writers*per)
				}
			}
		})
	}
}

// TestOpenDynamicHonoursCacheBlocks: OpenOptions.CacheBlocks must reach the
// replayed dynamic handle's device, as it reaches every other reopened kind.
func TestOpenDynamicHonoursCacheBlocks(t *testing.T) {
	const sigma = 32
	dx, err := BuildDynamic(randColumn(4000, sigma, 63), sigma, Options{BlockBits: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for _, oo := range []OpenOptions{{CacheBlocks: 256}, {CacheBlocks: 256, WAL: &WALOptions{}}} {
		o := writeOpen(t, dx.WriteFile, oo)
		for i := 0; i < 2; i++ {
			if _, _, err := o.Dynamic.Query(4, 19); err != nil {
				t.Fatal(err)
			}
		}
		if st := o.Dynamic.disk.Stats(); st.CacheHits == 0 {
			t.Errorf("wal=%v: repeated query on a cached dynamic reopen hit the cache 0 times (%+v)", oo.WAL != nil, st)
		}
	}
}

// TestFormatGoldens pins the v2 on-disk bytes: the FNV-64a of WriteFile's
// output for one small fixed-seed index of each kind. The constants were
// computed before the root package was restructured around shard.Index and
// the shared handle; a change here is a format change.
func TestFormatGoldens(t *testing.T) {
	const sigma = 32
	data := randColumn(3000, sigma, 64)
	opts := Options{BlockBits: 2048, Seed: 9}
	static, err := Build(data, sigma, opts)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := BuildSharded(data, sigma, ShardOptions{Options: opts, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	bopts := opts
	bopts.Buffered = true
	app, err := BuildAppend(data, sigma, bopts)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := BuildDynamic(data, sigma, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := app.Append(uint32(i*7) % sigma); err != nil {
			t.Fatal(err)
		}
		if _, err := dyn.Change(int64(i*13), uint32(i*5)%sigma); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			if _, err := dyn.Delete(int64(i*11 + 1)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := dyn.Append(uint32(i*3) % sigma); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		kind  string
		write func(string) error
		want  uint64
	}{
		{"static", static.WriteFile, goldenStatic},
		{"sharded", sharded.WriteFile, goldenSharded},
		{"append", app.WriteFile, goldenAppend},
		{"dynamic", dyn.WriteFile, goldenDynamic},
	} {
		path := filepath.Join(t.TempDir(), tc.kind)
		if err := tc.write(path); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(raw)
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s container: %d bytes hash to %#x, golden %#x", tc.kind, len(raw), got, tc.want)
		}
	}
}

// goldenStatic and goldenSharded were re-pinned once, by PR 16: containers no
// longer store the hashed level whose universe is >= n (here n = 3000 and
// 1000 per shard: level 4, universe 2^16), so the static file went from
// 34 491 to 24 965 bytes (0x9150b2c94f9f1a6f before) and the sharded one from
// 53 934 to 42 382 (0x3b95cce8b69932a3 before). Files with the old bytes
// still open: TestReadCompatPR15. The append and dynamic kinds carry no
// hashed levels and did not move. goldenSharded moved once more when shards
// stopped building hashed levels at all, from 42 382 to 29 440 bytes
// (0x4b9bc5bd173cda06 before; TestReadCompatPR15/sharded-k4 opens a file
// written that way). Both moved again when internal members took exp-Golomb
// orders (a smaller image, and the orders trailing the metadata): the static
// file from 24 965 to 24 453 bytes (0x0ea22dedcd46be97 before), the sharded
// one from 0x94e96aae2c5e93c2 at 29 440 bytes to the same size
// (TestReadCompatGammaMembers opens a file written the old way). Both moved
// again when the node records became the member directory (narrow records,
// so fewer structure blocks, and no lengths, node blocks or orders in the
// metadata): the static file from 24 453 to 16 261 bytes
// (0xe194f3de269608cd before), the sharded one from 29 440 to 11 520
// (0x4304db5b719aca31 before); TestReadCompatLegacyHeight opens a file
// written the old way. Both moved again when leaves took exp-Golomb orders,
// hashed sets, where shorter than gamma, the orders their directory entries
// give (a bit beside each cardinality says where), and the image dropped the
// prefix array A and put the tree layout first: the static file from
// 16 261 to 14 388 bytes (0xa6d56523e372e577 before), the sharded one from
// 11 520 to 9 180 (0xffeda790383f34f8 before); TestReadCompatPR45 opens
// files written the old way. Both moved again when the manifest's reserved
// slot became the static payload's revision (1) and the hashed directory
// stopped listing, and the image storing, the sets no query can select: the
// static file from 14 388 to 11 245 bytes (0x645b4acb5be1330a before), the
// sharded one, whose shards store no hashed sets, in its revision byte alone,
// at 9 180 bytes (0xad93e0257dc506d8 before); TestReadCompatPR46 opens a file
// written the old way. Both moved again at revision 2, when the image dropped
// the blocked tree layout and the metadata took the member directory as one
// gap-coded stream: the static file from 11 245 to 10 221 bytes
// (0xf2cd1f3cd889e725 before), the sharded one from 9 180 to 7 644
// (0xfa2a69ca16ad1e26 before); TestReadCompatPR50 opens files written the
// old way. Both moved again at revision 3, when the image stopped storing the
// hashed sets no shorter than their exact members and the directory took a
// stored bit per listed set, coding each stored set's collisions in place of
// its card: the static file from 10 221 to 10 058 bytes (0xdf039ba5c9089ce2
// before), the sharded one, exact-only, in its revision byte alone, at 7 644
// bytes (0xf27f5d7c5e1576df before); TestReadCompatPR52 opens a file written
// the old way.
const (
	goldenStatic  = 0x882911c2954d9281
	goldenSharded = 0xca6ba72af4ba317
	goldenAppend  = 0x1ef60908cb06349d
	goldenDynamic = 0x9527613b21cf3c92
)

// TestInvalidOpRejectedEveryMode drives invalid operations through every
// combination of handle mode and updatable kind: each must be rejected
// without a trace — row count, snapshot version and log sequence unchanged —
// and leave the handle accepting the next valid operation.
func TestInvalidOpRejectedEveryMode(t *testing.T) {
	const sigma, n0 = 16, 400
	initial := randColumn(n0, sigma, 65)
	type ops struct {
		length  func() int64
		snap    func() (*Snapshot, error)
		invalid map[string]func() (Stats, error)
		valid   func() (Stats, error)
	}
	appendOps := func(ix *AppendIndex) ops {
		return ops{ix.Len, ix.Snapshot, map[string]func() (Stats, error){
			"append key = sigma": func() (Stats, error) { return ix.Append(sigma) },
		}, func() (Stats, error) { return ix.Append(3) }}
	}
	dynamicOps := func(ix *DynamicIndex) ops {
		return ops{ix.Len, ix.Snapshot, map[string]func() (Stats, error){
			"append key = sigma": func() (Stats, error) { return ix.Append(sigma) },
			"change key > sigma": func() (Stats, error) { return ix.Change(0, sigma+5) },
			"change row -1":      func() (Stats, error) { return ix.Change(-1, 0) },
			"change row = len":   func() (Stats, error) { return ix.Change(ix.Len(), 0) },
			"delete row = len":   func() (Stats, error) { return ix.Delete(ix.Len()) },
		}, func() (Stats, error) { return ix.Append(3) }}
	}
	for _, mode := range []struct {
		name            string
		concurrent, wal bool
	}{{"plain", false, false}, {"concurrent", true, false}, {"wal", false, true}, {"wal+concurrent", true, true}} {
		for _, kind := range []string{"append", "dynamic"} {
			t.Run(mode.name+"/"+kind, func(t *testing.T) {
				var o *Opened // non-nil on reopened (wal) handles
				var h ops
				bo := Options{BlockBits: 2048, Concurrent: mode.concurrent && !mode.wal}
				oo := OpenOptions{Concurrent: mode.concurrent}
				if mode.wal {
					oo.WAL = &WALOptions{}
				}
				if kind == "append" {
					ix, err := BuildAppend(initial, sigma, bo)
					if err != nil {
						t.Fatal(err)
					}
					if mode.wal {
						o = writeOpen(t, ix.WriteFile, oo)
						ix = o.Append
					}
					h = appendOps(ix)
				} else {
					ix, err := BuildDynamic(initial, sigma, bo)
					if err != nil {
						t.Fatal(err)
					}
					if mode.wal {
						o = writeOpen(t, ix.WriteFile, oo)
						ix = o.Dynamic
					}
					h = dynamicOps(ix)
				}
				// state is (rows, snapshot version, last log sequence); the
				// last two read zero in modes that do not have them.
				state := func() [3]uint64 {
					st := [3]uint64{uint64(h.length())}
					if mode.concurrent {
						s, err := h.snap()
						if err != nil {
							t.Fatal(err)
						}
						st[1] = s.Version()
						s.Release()
					}
					if o != nil {
						st[2] = o.LastSeq()
					}
					return st
				}
				before := state()
				for name, op := range h.invalid {
					if _, err := op(); err == nil {
						t.Errorf("%s: accepted", name)
					}
					if got := state(); got != before {
						t.Errorf("%s: state (rows, version, seq) %v → %v", name, before, got)
					}
				}
				if _, err := h.valid(); err != nil {
					t.Fatalf("valid operation after the rejections: %v", err)
				}
				want := before
				want[0]++
				if mode.concurrent {
					want[1]++
				}
				if o != nil {
					want[2]++
				}
				if got := state(); got != want {
					t.Errorf("after one valid operation: state %v, want %v", got, want)
				}
			})
		}
	}
}

// TestWritableReopenRejectsDamagedColumn: a column mirror that checksums but
// does not decode — here cut in half before the section was written — must
// fail the writable open, not leave the handle appending onto a partial
// mirror.
func TestWritableReopenRejectsDamagedColumn(t *testing.T) {
	ix, err := BuildAppend(randColumn(300, 8, 66), 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cut.secidx")
	err = writeContainer(path, container.KindAppend, func(cw *container.Writer) error {
		var e, m, c container.Encoder
		encodeManifest(&e, ix.Len(), ix.ax.Sigma(), ix.opts, 1, 0)
		if err := cw.Add(container.TypeManifest, 0, e.Bytes(), 1); err != nil {
			return err
		}
		if err := ix.ax.EncodeMeta(&m); err != nil {
			return err
		}
		if err := cw.Add(container.TypeAppendMeta, 0, m.Bytes(), 1); err != nil {
			return err
		}
		ix.ax.EncodeColumn(&c)
		if err := cw.Add(container.TypeColumn, 0, c.Bytes()[:len(c.Bytes())/2], 1); err != nil {
			return err
		}
		return addImage(cw, 0, ix.disk)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, OpenOptions{WAL: &WALOptions{}}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("writable open over a damaged column section: error %v, want ErrCorrupt", err)
	}
}

// TestStaticMethodSets pins the exported method sets of Index and
// ShardedIndex. Both embed one shared type, and Go promotes every exported
// method of an embedded field to both handles, so a method exported on the
// shared type by mistake (QueryBatchExec, say) would silently widen Index.
func TestStaticMethodSets(t *testing.T) {
	want := map[reflect.Type][]string{
		reflect.TypeOf((*Index)(nil)): {
			"ApproxQuery(uint32, uint32, float64) (*secidx.ApproxResult, index.QueryStats, error)",
			"ApproxQueryContext(context.Context, uint32, uint32, float64) (*secidx.ApproxResult, index.QueryStats, error)",
			"ArmFaults()",
			"DisarmFaults()",
			"Len() int64",
			"PayloadUnderCodes() ([]core.LevelCodes, error)",
			"Query(uint32, uint32) (*secidx.Result, index.QueryStats, error)",
			"QueryBatch([]index.Range) ([]*secidx.Result, index.QueryStats, error)",
			"QueryBatchContext(context.Context, []index.Range) ([]*secidx.Result, index.QueryStats, error)",
			"QueryContext(context.Context, uint32, uint32) (*secidx.Result, index.QueryStats, error)",
			"QueryExec(context.Context, uint32, uint32, secidx.QueryOptions) (*secidx.Result, index.QueryStats, error)",
			"Serve(secidx.ServerConfig) (*secidx.Server, error)",
			"Sigma() int",
			"SizeBits() int64",
			"SpaceLedger() core.SpaceLedger",
			"WriteFile(string) error",
		},
		reflect.TypeOf((*ShardedIndex)(nil)): {
			"ArmFaults()",
			"DeviceStats() iomodel.StatsSnapshot",
			"DisarmFaults()",
			"Len() int64",
			"PayloadUnderCodes() ([][]core.LevelCodes, error)",
			"Query(uint32, uint32) (*secidx.Result, index.QueryStats, error)",
			"QueryBatch([]index.Range) ([]*secidx.Result, index.QueryStats, error)",
			"QueryBatchContext(context.Context, []index.Range) ([]*secidx.Result, index.QueryStats, error)",
			"QueryBatchExec(context.Context, []index.Range, secidx.QueryOptions) ([]*secidx.Result, index.QueryStats, []shard.ShardError, error)",
			"QueryContext(context.Context, uint32, uint32) (*secidx.Result, index.QueryStats, error)",
			"QueryExec(context.Context, uint32, uint32, secidx.QueryOptions) (*secidx.Result, index.QueryStats, []shard.ShardError, error)",
			"ResetDeviceStats()",
			"Serve(secidx.ServerConfig) (*secidx.Server, error)",
			"Shards() int",
			"Sigma() int",
			"SizeBits() int64",
			"SpaceLedger() []core.SpaceLedger",
			"WriteFile(string) error",
		},
	}
	for typ, methods := range want {
		var got []string
		for i := 0; i < typ.NumMethod(); i++ {
			m := typ.Method(i)
			// Drop the receiver, the method type's first parameter.
			sig := strings.TrimPrefix(m.Type.String(), "func("+typ.String())
			got = append(got, m.Name+"("+strings.TrimPrefix(sig, ", "))
		}
		if !reflect.DeepEqual(got, methods) {
			t.Errorf("%s methods:\n got %q\nwant %q", typ, got, methods)
		}
	}
}

package secidx

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// TestBuildParallelDeterministic: the container Build and BuildSharded write,
// and the device image of the warm-up index (whose alphabet levels run as
// level tasks too), do not depend on how many level tasks encoded at once.
// GOMAXPROCS 1 is the sequential build, 2 the benchmark's machine, 8 more
// workers than a build has levels; SizeBits and the space ledger must agree
// as well, and no shard stores a hashed level.
func TestBuildParallelDeterministic(t *testing.T) {
	const sigma = 512
	col := compatColumn(140000, sigma, 18)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	dir := t.TempDir()
	type built struct {
		file   []byte
		size   int64
		ledger []SpaceLedger
	}
	for _, stride := range []int{1, 2} {
		opts := Options{BlockBits: 2048, Seed: 18, Stride: stride}
		var want map[string]built
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			ix, err := Build(col, sigma, opts)
			if err != nil {
				t.Fatal(err)
			}
			sx, err := BuildSharded(col, sigma, ShardOptions{Options: opts, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			// Shards are exact-only: no hashed level may creep back in.
			for i, l := range sx.SpaceLedger() {
				requireStoredLevels(t, fmt.Sprintf("stride %d shard %d", stride, i), l, 0, 0)
			}
			got := map[string]built{
				"Build":        {size: ix.SizeBits(), ledger: []SpaceLedger{ix.SpaceLedger()}},
				"BuildSharded": {size: sx.SizeBits(), ledger: sx.SpaceLedger()},
			}
			for name, w := range map[string]interface{ WriteFile(string) error }{"Build": ix, "BuildSharded": sx} {
				path := filepath.Join(dir, name)
				if err := w.WriteFile(path); err != nil {
					t.Fatal(err)
				}
				b := got[name]
				if b.file, err = os.ReadFile(path); err != nil {
					t.Fatal(err)
				}
				got[name] = b
			}
			d := iomodel.NewDisk(iomodel.Config{BlockBits: opts.BlockBits})
			wx, err := core.BuildWarmup(d, workload.Column{X: col, Sigma: sigma})
			if err != nil {
				t.Fatal(err)
			}
			_, image := d.Image()
			got["Warmup"] = built{file: bytes.Clone(image), size: wx.SizeBits()}
			if want == nil {
				want = got
				continue
			}
			for name, g := range got {
				w := want[name]
				if !bytes.Equal(g.file, w.file) {
					t.Errorf("stride %d %s: bytes written under GOMAXPROCS=%d differ from GOMAXPROCS=1's (%d vs %d bytes)", stride, name, procs, len(g.file), len(w.file))
				}
				if g.size != w.size || !reflect.DeepEqual(g.ledger, w.ledger) {
					t.Errorf("stride %d %s: GOMAXPROCS=%d SizeBits %d / ledger differ from GOMAXPROCS=1's %d", stride, name, procs, g.size, w.size)
				}
			}
		}
	}
}

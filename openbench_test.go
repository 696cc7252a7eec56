package secidx

import (
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

// BenchmarkOpenFile times OpenFile and Close of a static container over a
// point-pread-shaped column (2^19 zipf-1 rows, σ 1024) and of a sharded one
// over a scan-wide-shaped column (2^20 rows in 4 shards), each written once
// at the default block size: what an open reads and decodes besides the
// counts and the tree, the member directory.
func BenchmarkOpenFile(b *testing.B) {
	const sigma = 1024
	for _, tc := range []struct {
		name  string
		n     int
		write func(data []uint32, path string) error
	}{
		{"static", 1 << 19, func(data []uint32, path string) error {
			ix, err := Build(data, sigma, Options{})
			if err != nil {
				return err
			}
			return ix.WriteFile(path)
		}},
		{"sharded", 1 << 20, func(data []uint32, path string) error {
			ix, err := BuildSharded(data, sigma, ShardOptions{Shards: 4})
			if err != nil {
				return err
			}
			return ix.WriteFile(path)
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "open.secidx")
			if err := tc.write(workload.Zipf(tc.n, sigma, 1.0, 63).X, path); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for range b.N {
				op, err := OpenFile(path, OpenOptions{})
				if err != nil {
					b.Fatal(err)
				}
				op.Close()
			}
		})
	}
}

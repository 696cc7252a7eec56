package main

import (
	"fmt"
	"os"
	"strings"

	secidx "repro"
	"repro/internal/container"
)

var sectionNames = map[uint64]string{
	container.TypeManifest:    "manifest",
	container.TypeStaticMeta:  "static-meta",
	container.TypeAppendMeta:  "append-meta",
	container.TypeDynamicMeta: "dynamic-meta",
	container.TypeImageInfo:   "image-info",
	container.TypeImage:       "image",
	container.TypeColumn:      "column",
	container.TypeDurable:     "durable",
}

// writeContainer builds the index the flags describe through the public API
// and writes it to path: static, or sharded with shards > 1.
func writeContainer(path string, data []uint32, sigma, blockBits, shards int) error {
	opts := secidx.Options{BlockBits: blockBits, Seed: 42}
	if shards > 1 {
		ix, err := secidx.BuildSharded(data, sigma, secidx.ShardOptions{Options: opts, Shards: shards})
		if err != nil {
			return err
		}
		return ix.WriteFile(path)
	}
	ix, err := secidx.Build(data, sigma, opts)
	if err != nil {
		return err
	}
	return ix.WriteFile(path)
}

// inspect prints a container's section directory and, for the static and
// sharded kinds, each shard's space ledger beside the column's entropy. It
// fails when a ledger does not account for every bit of its image section.
func inspect(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	cf, err := container.Parse(f, st.Size())
	if err != nil {
		return err
	}
	kind := map[uint64]string{
		container.KindStatic: "static", container.KindSharded: "sharded",
		container.KindAppend: "append", container.KindDynamic: "dynamic",
	}[cf.Kind]
	fmt.Printf("%s: %d bytes, %s container\n", path, st.Size(), kind)
	fmt.Printf("  %-13s %5s %12s\n", "section", "shard", "bytes")
	var payload int64
	for _, s := range cf.Sections {
		fmt.Printf("  %-13s %5d %12d\n", sectionNames[s.Type], s.Shard, s.Len)
		payload += s.Len
	}
	fmt.Printf("  %-13s %5s %12d\n", "framing", "", st.Size()-payload)

	o, err := secidx.OpenFile(path, secidx.OpenOptions{})
	if err != nil {
		return err
	}
	defer o.Close()
	var ledgers []secidx.SpaceLedger
	var codes [][]secidx.LevelCodes
	switch {
	case o.Static != nil:
		ledgers = []secidx.SpaceLedger{o.Static.SpaceLedger()}
		var c []secidx.LevelCodes
		c, err = o.Static.PayloadUnderCodes()
		codes = [][]secidx.LevelCodes{c}
	case o.Sharded != nil:
		ledgers = o.Sharded.SpaceLedger()
		codes, err = o.Sharded.PayloadUnderCodes()
	default:
		fmt.Println("no space ledger: only static and sharded containers hold Theorem 2/3 images")
		return nil
	}
	if err != nil {
		return err
	}
	var rows int64
	for i, l := range ledgers {
		img, _ := cf.Find(container.TypeImage, uint64(i))
		meta, _ := cf.Find(container.TypeStaticMeta, uint64(i))
		printLedger(i, l, img.Len, meta.Len)
		printOrders(l.Rows, codes[i])
		if l.ResidentBits() != l.ImageBits || (l.ImageBits+7)/8 != img.Len {
			return fmt.Errorf("shard %d: ledger parts sum to %d bits, device allocated %d, image section holds %d bytes",
				i, l.ResidentBits(), l.ImageBits, img.Len)
		}
		rows += l.Rows
	}
	fmt.Printf("file: %.2f bits/row over %d rows\n", float64(8*st.Size())/float64(rows), rows)
	return nil
}

func printLedger(shard int, l secidx.SpaceLedger, imageBytes, metaBytes int64) {
	perRow := func(bits int64) string { return fmt.Sprintf("%.2f", float64(bits)/float64(l.Rows)) }
	stored := 0
	for _, lv := range l.Levels {
		stored = max(stored, len(lv.HashedBits))
	}
	fmt.Printf("shard %d: %d rows, sigma %d, H0 = %.3f bits/row; bits/row by level:\n", shard, l.Rows, l.Sigma, l.H0)
	head := fmt.Sprintf("  %5s %8s %8s", "depth", "members", "exact")
	for j := 1; j <= stored; j++ {
		head += fmt.Sprintf(" %8s", fmt.Sprintf("h_%d", j))
	}
	fmt.Println(head)
	sums := make([]int64, stored)
	for _, lv := range l.Levels {
		line := fmt.Sprintf("  %5d %8d %8s", lv.Depth, lv.Members, perRow(lv.ExactBits))
		for j, b := range lv.HashedBits {
			line += fmt.Sprintf(" %8s", perRow(b))
			sums[j] += b
		}
		fmt.Println(line)
	}
	exact, hashed := l.PayloadBits()
	line := fmt.Sprintf("  %5s %8s %8s", "all", "", perRow(exact))
	for _, b := range sums {
		line += fmt.Sprintf(" %8s", perRow(b))
	}
	fmt.Println(line)
	if stored > l.UsefulK {
		fmt.Printf("  levels above h_%d have universes >= n: stored by an older build, never read\n", l.UsefulK)
	}
	for _, part := range []struct {
		name string
		bits int64
	}{
		{"exact sets", exact},
		{"hashed sets", hashed},
		{"prefix array A", l.PrefixBits},
		{"padding", l.PadBits},
		{"tree layout", l.LayoutBits},
		{"= image section", 8 * imageBytes},
		{"metadata section", 8 * metaBytes},
	} {
		fmt.Printf("  %-17s %12d bits %8s /row\n", part.name, part.bits, perRow(part.bits))
	}
	total := 8 * (imageBytes + metaBytes)
	fmt.Printf("  %-17s %12d bits %8s /row = %.1f x H0 (directory as SizeBits charges it: %s /row)\n",
		"shard", total, perRow(total), float64(total)/float64(l.Rows)/max(l.H0, 1e-9), perRow(l.DirBits))
	fmt.Println(" ", strings.Repeat("-", 60))
}

// printOrders prints each level's exp-Golomb order histogram — members stored
// at each order k — and the bits those orders save against gamma-coding
// every member.
func printOrders(rows int64, levels []secidx.LevelCodes) {
	fmt.Println("  exact sets by gap code (k:members; an old file's are all gamma, k = 0):")
	fmt.Printf("  %5s %-44s %10s %10s %10s\n", "depth", "orders", "stored", "gamma", "saved /row")
	var stored, gamma int64
	for _, l := range levels {
		var hist []string
		for k, c := range l.Orders {
			if c > 0 {
				hist = append(hist, fmt.Sprintf("%d:%d", k, c))
			}
		}
		t := l.Total()
		stored += t.Stored
		gamma += t.Gamma
		fmt.Printf("  %5d %-44s %10d %10d %10.2f\n", l.Depth, strings.Join(hist, " "), t.Stored, t.Gamma, float64(t.Gamma-t.Stored)/float64(rows))
	}
	fmt.Printf("  %5s %-44s %10d %10d %10.2f\n", "all", "", stored, gamma, float64(gamma-stored)/float64(rows))
}

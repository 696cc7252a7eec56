package main

import (
	"fmt"
	"os"
	"strings"

	secidx "repro"
	"repro/internal/container"
	"repro/internal/core"
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
		printHashedSets(l, codes[i])
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
	type part struct {
		name string
		bits int64
	}
	parts := []part{{"exact sets", exact}, {"hashed sets", hashed}}
	older := l.RecordBits > 0 // a file of revision 1 or before: A's slots and the blocked tree layout
	if older {
		parts = append(parts, part{"prefix array A", l.PrefixBits}, part{"padding", l.PadBits}, part{"tree layout", l.LayoutBits})
	}
	parts = append(parts, part{"= image section", 8 * imageBytes}, part{"metadata section", 8 * metaBytes})
	if !older {
		parts = append(parts, part{"  exact lengths", l.Directory.LengthBits}, part{"  orders", l.Directory.OrderBits},
			part{"  hashed directory", l.Directory.HashedBits})
	}
	for _, p := range parts {
		fmt.Printf("  %-19s %12d bits %8s /row\n", p.name, p.bits, perRow(p.bits))
	}
	total := 8 * (imageBytes + metaBytes)
	fmt.Printf("  %-19s %12d bits %8s /row = %.1f x H0 (metadata directory as SizeBits charges it: %s /row)\n",
		"shard", total, perRow(total), float64(total)/float64(l.Rows)/max(l.H0, 1e-9), perRow(l.DirBits))
	if older {
		legacy := ""
		if l.RecordBits == 128 {
			legacy = " (an older build's: they hold no directory, the metadata does)"
		}
		fmt.Printf("  node records: %d bits, %d per block%s\n", l.RecordBits, l.NodesPerBlock, legacy)
	}
	fmt.Println(" ", strings.Repeat("-", 60))
}

// printOrders prints, per level for the internal members and for the
// leaves, and per hashed level j over all levels, the exp-Golomb order
// histogram — sets stored at each order k — and the bits those orders save
// against gamma-coding every set.
func printOrders(rows int64, levels []secidx.LevelCodes) {
	fmt.Println("  gap codes (k:sets; an old file's hashed sets are all gamma, k = 0, and so are its leaves before that):")
	fmt.Printf("  %-8s %5s %-44s %10s %10s %10s\n", "sets", "depth", "orders", "stored", "gamma", "saved /row")
	var all core.CodeBits
	line := func(name, depth string, c core.CodeBits) {
		var hist []string
		for k, n := range c.Orders {
			if n > 0 {
				hist = append(hist, fmt.Sprintf("%d:%d", k, n))
			}
		}
		fmt.Printf("  %-8s %5s %-44s %10d %10d %10.2f\n", name, depth, strings.Join(hist, " "), c.Stored, c.Gamma, float64(c.Gamma-c.Stored)/float64(rows))
		all.Add(c)
	}
	var hashed []core.CodeBits
	for _, l := range levels {
		for _, g := range []struct {
			name string
			c    core.CodeBits
		}{{"internal", l.Internal}, {"leaves", l.Leaves}} {
			if len(g.c.Orders) > 0 {
				line(g.name, fmt.Sprint(l.Depth), g.c)
			}
		}
		for j, c := range l.Hashed {
			if j == len(hashed) {
				hashed = append(hashed, core.CodeBits{})
			}
			hashed[j].Add(c)
		}
	}
	for j, c := range hashed {
		line(fmt.Sprintf("h_%d", j+1), "all", c)
	}
	fmt.Printf("  %-8s %5s %-44s %10d %10d %10.2f\n", "all", "", "", all.Stored, all.Gamma, float64(all.Gamma-all.Stored)/float64(rows))
}

// printHashedSets prints, per level and j, the hashed sets the image stores
// and those it omits because no query can select them (an old file omits
// none).
func printHashedSets(l secidx.SpaceLedger, levels []secidx.LevelCodes) {
	if len(levels) == 0 || len(levels[0].Hashed) == 0 {
		return
	}
	fmt.Println("  hashed sets stored/omitted by level (omitted: no query can select them):")
	head := fmt.Sprintf("  %5s %8s", "depth", "members")
	for j := range levels[0].Hashed {
		head += fmt.Sprintf(" %13s", fmt.Sprintf("h_%d", j+1))
	}
	fmt.Println(head)
	for li, lv := range levels {
		members := l.Levels[li].Members
		line := fmt.Sprintf("  %5d %8d", lv.Depth, members)
		for _, c := range lv.Hashed {
			stored := 0
			for _, sets := range c.Orders {
				stored += sets
			}
			line += fmt.Sprintf(" %13s", fmt.Sprintf("%d/%d", stored, members-stored))
		}
		fmt.Println(line)
	}
}

// Package experiments reproduces the paper's results: one experiment per
// theorem plus the analytical separations of §1.2, as indexed in DESIGN.md.
// The paper has no empirical tables (it is a PODS theory paper), so each
// experiment measures the quantity a theorem bounds — space in bits, block
// I/Os, bits read, false-positive rate — and EXPERIMENTS.md records whether
// the measured curve has the proven shape.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/bitmapidx"
	"repro/internal/btreeidx"
	"repro/internal/core"
	"repro/internal/entropy"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/mrbi"
	"repro/internal/rangeenc"
	"repro/internal/ridlist"
	"repro/internal/wah"
	"repro/internal/workload"
)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "   %s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// Scale selects experiment sizes: Quick for CI/benchmarks, Full for the
// experiment binary.
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

func (s Scale) pick(quick, full int) int {
	if s == Quick {
		return quick
	}
	return full
}

const blockBits = 8192 // 1 KiB blocks: b = B/lg n is a realistic ~400

// avgQuery runs the queries and averages the stats.
func avgQuery(ix index.Index, qs []workload.RangeQuery) (reads float64, bits float64, z float64, err error) {
	for _, q := range qs {
		bm, st, e := ix.Query(index.Range{Lo: q.Lo, Hi: q.Hi})
		if e != nil {
			return 0, 0, 0, e
		}
		reads += float64(st.Reads)
		bits += float64(st.BitsRead)
		z += float64(bm.Card())
	}
	n := float64(len(qs))
	return reads / n, bits / n, z / n, nil
}

// E1SpaceVsSigma measures index space (bits per character) as the alphabet
// grows at fixed n. Shapes checked: explicit bitmaps grow linearly in σ;
// the Theorem 1 warm-up and the multi-resolution index grow with lg²σ; the
// compressed bitmap index and the Theorem 2 structure grow with lg σ = H₀.
func E1SpaceVsSigma(s Scale) (*Table, error) {
	n := s.pick(1<<15, 1<<17)
	t := &Table{
		ID:     "E1",
		Title:  "space vs alphabet size (uniform column)",
		Note:   fmt.Sprintf("n = %d, bits per character; '-' = configuration skipped (plain bitmaps need σ·n bits)", n),
		Header: []string{"sigma", "H0", "bitmap-plain", "bitmap-gamma", "bitmap-range", "wah", "mrbi-w4", "btree", "pr-warmup", "pr-optimal"},
	}
	for _, sigma := range []int{16, 64, 256, 1024, 4096} {
		col := workload.Uniform(n, sigma, 11)
		h0 := entropy.H0String(col.X, sigma)
		row := []string{fmt.Sprint(sigma), fmt.Sprintf("%.2f", h0)}
		perChar := func(bits int64) string { return fmt.Sprintf("%.1f", float64(bits)/float64(n)) }

		if sigma <= 256 {
			d := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
			ix, err := bitmapidx.Build(d, col, false)
			if err != nil {
				return nil, err
			}
			row = append(row, perChar(ix.SizeBits()))
		} else {
			row = append(row, "-")
		}
		{
			d := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
			ix, err := bitmapidx.Build(d, col, true)
			if err != nil {
				return nil, err
			}
			row = append(row, perChar(ix.SizeBits()))
		}
		{
			d := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
			ix, err := rangeenc.Build(d, col)
			if err != nil {
				return nil, err
			}
			row = append(row, perChar(ix.SizeBits()))
		}
		{
			d := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
			ix, err := wah.BuildIndex(d, col)
			if err != nil {
				return nil, err
			}
			row = append(row, perChar(ix.SizeBits()))
		}
		{
			d := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
			ix, err := mrbi.Build(d, col, 4)
			if err != nil {
				return nil, err
			}
			row = append(row, perChar(ix.SizeBits()))
		}
		{
			d := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
			ix, err := btreeidx.Build(d, col)
			if err != nil {
				return nil, err
			}
			row = append(row, perChar(ix.SizeBits()))
		}
		{
			d := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
			ix, err := core.BuildWarmup(d, col, core.WarmupOptions{})
			if err != nil {
				return nil, err
			}
			row = append(row, perChar(ix.SizeBits()))
		}
		{
			d := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
			ix, err := core.BuildOptimalDefault(d, col)
			if err != nil {
				return nil, err
			}
			row = append(row, perChar(ix.SizeBits()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// E2QueryVsRange measures bits read per query as the range length grows:
// the §1.2 separation. The flat bitmap index reads the ℓ per-character
// bitmaps (a factor Ω(lg σ / lg(σ/ℓ)) above the answer); Theorem 2 reads
// O(z lg(n/z)) bits whatever ℓ is.
func E2QueryVsRange(s Scale) (*Table, error) {
	n := s.pick(1<<15, 1<<17)
	sigma := 1024
	nq := s.pick(5, 20)
	col := workload.Uniform(n, sigma, 13)
	t := &Table{
		ID:     "E2",
		Title:  "query cost vs range length ℓ (bits read / information bound of the answer)",
		Note:   fmt.Sprintf("n = %d, σ = %d, uniform; answer bound = lg C(n,z)", n, sigma),
		Header: []string{"ell", "z", "bound(bits)", "bitmap-gamma", "bitmap-range", "wah", "mrbi-w4", "btree", "pr-optimal", "pr-optimal reads"},
	}
	dG := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
	ixG, err := bitmapidx.Build(dG, col, true)
	if err != nil {
		return nil, err
	}
	dR := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
	ixR, err := rangeenc.Build(dR, col)
	if err != nil {
		return nil, err
	}
	dW := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
	ixW, err := wah.BuildIndex(dW, col)
	if err != nil {
		return nil, err
	}
	dM := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
	ixM, err := mrbi.Build(dM, col, 4)
	if err != nil {
		return nil, err
	}
	dB := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
	ixB, err := btreeidx.Build(dB, col)
	if err != nil {
		return nil, err
	}
	dO := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
	ixO, err := core.BuildOptimalDefault(dO, col)
	if err != nil {
		return nil, err
	}
	for _, ell := range []int{1, 4, 16, 64, 256, 512} {
		qs := workload.RandomRanges(nq, sigma, ell, int64(ell)*7)
		_, _, z, err := avgQuery(ixO, qs)
		if err != nil {
			return nil, err
		}
		bound := entropy.AnswerBound(int64(n), int64(z))
		if bound < 1 {
			bound = 1
		}
		row := []string{fmt.Sprint(ell), fmt.Sprintf("%.0f", z), fmt.Sprintf("%.0f", bound)}
		for _, ix := range []index.Index{ixG, ixR, ixW, ixM, ixB} {
			_, bits, _, err := avgQuery(ix, qs)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.1fx", bits/bound))
		}
		readsO, bitsO, _, err := avgQuery(ixO, qs)
		if err != nil {
			return nil, err
		}
		row = append(row, fmt.Sprintf("%.1fx", bitsO/bound), fmt.Sprintf("%.1f", readsO))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// E3EntropySweep checks Theorem 2's O(nH₀ + n) space adaptivity: as Zipf
// skew lowers the column's entropy, the structure's bitmap payload follows.
func E3EntropySweep(s Scale) (*Table, error) {
	n := s.pick(1<<14, 1<<17)
	sigma := 256
	t := &Table{
		ID:     "E3",
		Title:  "space adaptivity to 0th-order entropy (Zipf sweep)",
		Note:   fmt.Sprintf("n = %d, σ = %d; payload = bitmap bits only, per character", n, sigma),
		Header: []string{"theta", "H0", "pr-optimal payload/n", "payload/(H0+1)", "bitmap-gamma/n"},
	}
	for _, theta := range []float64{0, 0.5, 1.0, 1.5, 2.0} {
		col := workload.Zipf(n, sigma, theta, 17)
		h0 := entropy.H0String(col.X, sigma)
		dO := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
		ixO, err := core.BuildOptimalDefault(dO, col)
		if err != nil {
			return nil, err
		}
		dG := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
		ixG, err := bitmapidx.Build(dG, col, true)
		if err != nil {
			return nil, err
		}
		payload := float64(ixO.BitmapBits()) / float64(n)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", theta),
			fmt.Sprintf("%.3f", h0),
			fmt.Sprintf("%.2f", payload),
			fmt.Sprintf("%.2f", payload/(h0+1)),
			fmt.Sprintf("%.2f", float64(ixG.SizeBits())/float64(n)),
		})
	}
	return t, nil
}

// E4TradeOff exhibits §1.2's claim that binned multi-resolution indexes
// trade space for query time via the bin width w, while Theorem 2 needs no
// knob: it matches the best space and the best query cost simultaneously.
func E4TradeOff(s Scale) (*Table, error) {
	n := s.pick(1<<14, 1<<17)
	sigma := 1024
	nq := s.pick(5, 20)
	col := workload.Uniform(n, sigma, 19)
	qs := workload.RandomRanges(nq, sigma, 48, 23)
	t := &Table{
		ID:    "E4",
		Title: "the binning trade-off (σ=1024, ℓ=48) vs the trade-off-free structure",
		Note: fmt.Sprintf("n = %d; mrbi bitmap space falls and read cost rises with w; "+
			"payload = bitmap bits only (total adds the σ·polylog directory)", n),
		Header: []string{"index", "payload bits/char", "total bits/char", "avg bits read", "avg reads"},
	}
	add := func(name string, payload int64, ix index.Index) error {
		reads, bits, _, err := avgQuery(ix, qs)
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.1f", float64(payload)/float64(n)),
			fmt.Sprintf("%.1f", float64(ix.SizeBits())/float64(n)),
			fmt.Sprintf("%.0f", bits),
			fmt.Sprintf("%.1f", reads),
		})
		return nil
	}
	for _, w := range []int{2, 4, 16, 64} {
		d := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
		ix, err := mrbi.Build(d, col, w)
		if err != nil {
			return nil, err
		}
		if err := add(ix.Name(), ix.PayloadBits(), ix); err != nil {
			return nil, err
		}
	}
	d := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
	ix, err := core.BuildOptimalDefault(d, col)
	if err != nil {
		return nil, err
	}
	if err := add(ix.Name(), ix.BitmapBits(), ix); err != nil {
		return nil, err
	}
	return t, nil
}

// E5ApproxEps measures Theorem 3: bits read scale with lg(1/ε) rather than
// lg(n/z), and the observed false-positive rate stays below ε.
func E5ApproxEps(s Scale) (*Table, error) {
	n := s.pick(1<<14, 1<<15)
	sigma := 2048
	col := workload.Uniform(n, sigma, 29)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
	ax, err := core.BuildApprox(d, col, core.ApproxOptions{Seed: 31})
	if err != nil {
		return nil, err
	}
	qs := workload.RandomRanges(s.pick(3, 8), sigma, 2, 37)
	exactBits := 0.0
	for _, q := range qs {
		_, st, err := ax.Query(index.Range{Lo: q.Lo, Hi: q.Hi})
		if err != nil {
			return nil, err
		}
		exactBits += float64(st.BitsRead)
	}
	exactBits /= float64(len(qs))
	t := &Table{
		ID:     "E5",
		Title:  "approximate queries: bits read and FPR vs ε (Theorem 3)",
		Note:   fmt.Sprintf("n = %d, σ = %d, ℓ = 2 (z≈%d); exact query reads %.0f bits", n, sigma, 2*n/sigma, exactBits),
		Header: []string{"eps", "hashed level j", "avg bits read", "vs exact", "measured FPR", "FPR/eps"},
	}
	for _, eps := range []float64{0.5, 0.25, 1.0 / 16, 1.0 / 64, 1.0 / 256} {
		var bits float64
		var fp, nonMembers int64
		level := "-"
		for _, q := range qs {
			res, st, err := ax.ApproxQuery(index.Range{Lo: q.Lo, Hi: q.Hi}, eps)
			if err != nil {
				return nil, err
			}
			bits += float64(st.BitsRead)
			if res.IsExact() {
				level = "exact"
				continue
			}
			level = fmt.Sprint(res.J)
			truth := map[int64]bool{}
			for _, p := range workload.BruteForce(col, q) {
				truth[p] = true
			}
			cand, err := res.Candidates()
			if err != nil {
				return nil, err
			}
			nonMembers += int64(col.Len()) - int64(len(truth))
			fp += cand.Card() - int64(len(truth))
		}
		bits /= float64(len(qs))
		fpr := 0.0
		if nonMembers > 0 {
			fpr = float64(fp) / float64(nonMembers)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.4f", eps),
			level,
			fmt.Sprintf("%.0f", bits),
			fmt.Sprintf("%.2fx", bits/exactBits),
			fmt.Sprintf("%.5f", fpr),
			fmt.Sprintf("%.2f", fpr/eps),
		})
	}
	return t, nil
}

// E6Append measures the amortised append cost of Theorems 4 and 5.
func E6Append(s Scale) (*Table, error) {
	sigma := 64
	n0 := 1000
	appends := s.pick(20000, 100000)
	t := &Table{
		ID:     "E6",
		Title:  "amortised append cost (Theorem 4 direct vs Theorem 5 buffered)",
		Note:   fmt.Sprintf("initial n = %d, %d appends, σ = %d, B = %d bits", n0, appends, sigma, blockBits),
		Header: []string{"variant", "levels (lg lg n)", "amortised I/Os per append", "rebuilds", "final space bits/char"},
	}
	for _, buffered := range []bool{false, true} {
		col := workload.Uniform(n0, sigma, 41)
		d := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
		ax, err := core.BuildAppendIndex(d, col, core.AppendOptions{Buffered: buffered})
		if err != nil {
			return nil, err
		}
		rng := workload.Uniform(appends, sigma, 43)
		var total int64
		for _, ch := range rng.X {
			st, err := ax.Append(ch)
			if err != nil {
				return nil, err
			}
			total += int64(st.Reads + st.Writes)
		}
		t.Rows = append(t.Rows, []string{
			ax.Name(),
			fmt.Sprint(ax.MaterialisedLevels()),
			fmt.Sprintf("%.3f", float64(total)/float64(appends)),
			fmt.Sprint(ax.RebuildCount + ax.GlobalRebuildCount),
			fmt.Sprintf("%.1f", float64(ax.SizeBits())/float64(ax.Len())),
		})
	}
	return t, nil
}

// E7PointIndex measures Theorem 6: point query O(T/B + lg n) and update
// amortised O(lg n / b), with the update cost falling as blocks grow.
func E7PointIndex(s Scale) (*Table, error) {
	sigma := 64
	n := s.pick(1<<14, 1<<16)
	updates := s.pick(20000, 80000)
	t := &Table{
		ID:     "E7",
		Title:  "buffered compressed bitmap index (Theorem 6)",
		Note:   fmt.Sprintf("bulk n = %d then %d random updates, σ = %d", n, updates, sigma),
		Header: []string{"B (bits)", "amortised update I/Os", "point query reads", "space bits/char"},
	}
	for _, bb := range []int{2048, 8192, 32768} {
		col := workload.Uniform(n, sigma, 47)
		d := iomodel.NewDisk(iomodel.Config{BlockBits: bb})
		px, err := core.BuildPointIndex(d, col, 8)
		if err != nil {
			return nil, err
		}
		upd := workload.Uniform(updates, sigma, 53)
		var total int64
		for i, ch := range upd.X {
			var st index.QueryStats
			if i%2 == 0 {
				st, err = px.Insert(ch, int64(n+i))
			} else {
				st, err = px.Delete(ch, int64(i)%int64(n))
			}
			if err != nil {
				return nil, err
			}
			total += int64(st.Reads + st.Writes)
		}
		var qreads float64
		for ch := uint32(0); ch < 8; ch++ {
			_, st, err := px.PointQuery(ch)
			if err != nil {
				return nil, err
			}
			qreads += float64(st.Reads)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(bb),
			fmt.Sprintf("%.4f", float64(total)/float64(updates)),
			fmt.Sprintf("%.1f", qreads/8),
			fmt.Sprintf("%.1f", float64(px.SizeBits())/float64(n)),
		})
	}
	return t, nil
}

// E8Dynamic measures Theorem 7: amortised change cost and range query cost
// of the fully dynamic structure.
func E8Dynamic(s Scale) (*Table, error) {
	sigma := 64
	n := s.pick(1<<12, 1<<14)
	t := &Table{
		ID:     "E8",
		Title:  "fully dynamic index (Theorem 7)",
		Note:   fmt.Sprintf("n = %d, σ = %d; updates stay below the global-rebuild threshold", n, sigma),
		Header: []string{"B (bits)", "amortised change I/Os", "avg query reads", "avg query bits read"},
	}
	for _, bb := range []int{4096, 16384} {
		col := workload.Uniform(n, sigma, 59)
		d := iomodel.NewDisk(iomodel.Config{BlockBits: bb})
		dx, err := core.BuildDynamic(d, col, core.DynamicOptions{})
		if err != nil {
			return nil, err
		}
		changes := n / 3
		upd := workload.Uniform(changes, sigma, 61)
		var total int64
		for i, ch := range upd.X {
			st, err := dx.Change(int64(i*7)%int64(n), ch)
			if err != nil {
				return nil, err
			}
			total += int64(st.Reads + st.Writes)
		}
		qs := workload.RandomRanges(s.pick(5, 15), sigma, 8, 67)
		reads, bits, _, err := avgQuery(dx, qs)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(bb),
			fmt.Sprintf("%.3f", float64(total)/float64(changes)),
			fmt.Sprintf("%.1f", reads),
			fmt.Sprintf("%.0f", bits),
		})
	}
	return t, nil
}

// E9RIDIntersection runs the §1 application: a conjunctive query over a
// people table, answered exactly and with ε-approximate per-dimension
// filtering (false positives removed at row-fetch time).
func E9RIDIntersection(s Scale) (*Table, error) {
	n := s.pick(1<<14, 1<<16)
	tb, err := workload.NewTable(n, 71, []workload.ColumnSpec{
		{Name: "age", Sigma: 100, Dist: "uniform"},
		{Name: "sex", Sigma: 2, Dist: "uniform"},
		{Name: "marital", Sigma: 4, Dist: "zipf", Theta: 0.8},
	})
	if err != nil {
		return nil, err
	}
	d := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
	e, err := ridlist.Build(d, tb, 73, core.OptimalOptions{})
	if err != nil {
		return nil, err
	}
	conds := []ridlist.Cond{
		{Dim: 0, Lo: 33, Hi: 33}, // age = 33
		{Dim: 1, Lo: 1, Hi: 1},   // men
		{Dim: 2, Lo: 1, Hi: 1},   // married
	}
	exact, exStats, err := e.Conjunction(conds)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "E9",
		Title: "RID intersection: married men of age 33 (§1 application)",
		Note: fmt.Sprintf("n = %d rows, 3 single-attribute secondary indexes, index space %.1f bits/row",
			n, float64(e.SizeBits())/float64(n)),
		Header: []string{"strategy", "result rows", "index bits read", "index reads", "rows verified"},
	}
	t.Rows = append(t.Rows, []string{
		"exact", fmt.Sprint(exact.Card()),
		fmt.Sprint(exStats.BitsRead), fmt.Sprint(exStats.Reads), fmt.Sprint(exact.Card()),
	})
	for _, eps := range []float64{0.25, 1.0 / 16, 1.0 / 64} {
		res, st, verified, err := e.ConjunctionApprox(conds, eps)
		if err != nil {
			return nil, err
		}
		if res.Card() != exact.Card() {
			return nil, fmt.Errorf("E9: approx+verify returned %d rows, exact %d", res.Card(), exact.Card())
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("approx eps=%.4f", eps), fmt.Sprint(res.Card()),
			fmt.Sprint(st.BitsRead), fmt.Sprint(st.Reads), fmt.Sprint(verified),
		})
	}
	// Second workload: a selective conjunction over high-cardinality
	// attributes — the regime where Theorem 3's ε-filtering saves index
	// reads (the dense dimensions above fall back to exact queries).
	tbSel, err := workload.NewTable(n, 83, []workload.ColumnSpec{
		{Name: "device", Sigma: 4096, Dist: "uniform"},
		{Name: "errcode", Sigma: 4096, Dist: "uniform"},
		{Name: "shard", Sigma: 4096, Dist: "uniform"},
	})
	if err != nil {
		return nil, err
	}
	condsSel := []ridlist.Cond{
		{Dim: 0, Lo: 100, Hi: 101},
		{Dim: 1, Lo: 2000, Hi: 2001},
		{Dim: 2, Lo: 3000, Hi: 3001},
	}
	// Plant a handful of correlated rows inside the query box (real data is
	// correlated; independent uniform columns would make every conjunction
	// empty).
	for i := 0; i < 5; i++ {
		row := (i*7919 + 13) % n
		for dim, c := range condsSel {
			tbSel.Cols[dim].X[row] = c.Lo
		}
	}
	dSel := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
	eSel, err := ridlist.Build(dSel, tbSel, 89, core.OptimalOptions{})
	if err != nil {
		return nil, err
	}
	exactSel, exSelStats, err := eSel.Conjunction(condsSel)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{
		"selective exact", fmt.Sprint(exactSel.Card()),
		fmt.Sprint(exSelStats.BitsRead), fmt.Sprint(exSelStats.Reads), fmt.Sprint(exactSel.Card()),
	})
	res, st, verified, err := eSel.ConjunctionApprox(condsSel, 0.3)
	if err != nil {
		return nil, err
	}
	if res.Card() != exactSel.Card() {
		return nil, fmt.Errorf("E9 selective: approx+verify returned %d rows, exact %d", res.Card(), exactSel.Card())
	}
	t.Rows = append(t.Rows, []string{
		"selective eps=0.3000", fmt.Sprint(res.Card()),
		fmt.Sprint(st.BitsRead), fmt.Sprint(st.Reads), fmt.Sprint(verified),
	})
	return t, nil
}

// E10OutputOptimality verifies the problem statement's core promise: the
// Theorem 2 query reads within a constant factor of lg C(n,z) bits for
// answers of every density, including the complemented dense regime.
func E10OutputOptimality(s Scale) (*Table, error) {
	n := s.pick(1<<14, 1<<16)
	sigma := 256
	col := workload.Uniform(n, sigma, 79)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
	ix, err := core.BuildOptimalDefault(d, col)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E10",
		Title:  "bits read vs the information bound of the answer (Theorem 2)",
		Note:   fmt.Sprintf("n = %d, σ = %d; the ratio must stay bounded as z sweeps 3 orders of magnitude", n, sigma),
		Header: []string{"ell", "z", "lg C(n,z)", "bits read", "ratio"},
	}
	for _, ell := range []int{1, 8, 32, 128, 224, 255} {
		qs := workload.RandomRanges(s.pick(3, 10), sigma, ell, int64(ell)*83)
		_, bits, z, err := avgQuery(ix, qs)
		if err != nil {
			return nil, err
		}
		bound := entropy.AnswerBound(int64(n), int64(z))
		if bound < 1 {
			bound = 1
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(ell), fmt.Sprintf("%.0f", z), fmt.Sprintf("%.0f", bound),
			fmt.Sprintf("%.0f", bits), fmt.Sprintf("%.1fx", bits/bound),
		})
	}
	return t, nil
}

// A1Stride ablates the materialisation stride: stride 1 is the §2.2 naive
// upper bound (all levels, more space), stride 2 the paper's choice.
func A1Stride(s Scale) (*Table, error) {
	n := s.pick(1<<14, 1<<16)
	sigma := 256
	col := workload.Uniform(n, sigma, 89)
	qs := workload.RandomRanges(s.pick(5, 20), sigma, 16, 97)
	t := &Table{
		ID:     "A1",
		Title:  "ablation: level materialisation stride",
		Note:   fmt.Sprintf("n = %d, σ = %d, ℓ = 16", n, sigma),
		Header: []string{"stride", "materialised levels", "space bits/char", "avg bits read", "avg reads"},
	}
	for _, stride := range []int{1, 2, 4} {
		d := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
		ix, err := core.BuildOptimal(d, col, core.OptimalOptions{Stride: stride})
		if err != nil {
			return nil, err
		}
		reads, bits, _, err := avgQuery(ix, qs)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(stride),
			fmt.Sprint(ix.MaterialisedLevels()),
			fmt.Sprintf("%.1f", float64(ix.SizeBits())/float64(n)),
			fmt.Sprintf("%.0f", bits),
			fmt.Sprintf("%.1f", reads),
		})
	}
	return t, nil
}

// A2Branching ablates the weight-balanced tree's branching parameter c.
func A2Branching(s Scale) (*Table, error) {
	n := s.pick(1<<14, 1<<16)
	sigma := 256
	col := workload.Uniform(n, sigma, 101)
	qs := workload.RandomRanges(s.pick(5, 20), sigma, 16, 103)
	t := &Table{
		ID:     "A2",
		Title:  "ablation: branching parameter c (paper requires c > 4)",
		Note:   fmt.Sprintf("n = %d, σ = %d, ℓ = 16", n, sigma),
		Header: []string{"c", "tree nodes", "tree height", "space bits/char", "avg bits read", "avg reads"},
	}
	for _, c := range []int{5, 8, 16, 32} {
		d := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
		ix, err := core.BuildOptimal(d, col, core.OptimalOptions{Branching: c})
		if err != nil {
			return nil, err
		}
		reads, bits, _, err := avgQuery(ix, qs)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(c),
			fmt.Sprint(len(ix.Tree().Nodes)),
			fmt.Sprint(ix.Tree().Height),
			fmt.Sprintf("%.1f", float64(ix.SizeBits())/float64(n)),
			fmt.Sprintf("%.0f", bits),
			fmt.Sprintf("%.1f", reads),
		})
	}
	return t, nil
}

// A3PointBranching ablates the buffer tree's branching in Theorem 6.
func A3PointBranching(s Scale) (*Table, error) {
	sigma := 64
	n := s.pick(1<<13, 1<<15)
	updates := s.pick(10000, 40000)
	t := &Table{
		ID:     "A3",
		Title:  "ablation: buffer-tree branching in the buffered bitmap index",
		Note:   fmt.Sprintf("n = %d, %d updates, B = %d bits", n, updates, blockBits),
		Header: []string{"c", "amortised update I/Os", "point query reads"},
	}
	for _, c := range []int{2, 4, 8, 16} {
		col := workload.Uniform(n, sigma, 107)
		d := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
		px, err := core.BuildPointIndex(d, col, c)
		if err != nil {
			return nil, err
		}
		upd := workload.Uniform(updates, sigma, 109)
		var total int64
		for i, ch := range upd.X {
			st, err := px.Insert(ch, int64(n+i))
			if err != nil {
				return nil, err
			}
			total += int64(st.Reads + st.Writes)
		}
		var qreads float64
		for ch := uint32(0); ch < 8; ch++ {
			_, st, err := px.PointQuery(ch)
			if err != nil {
				return nil, err
			}
			qreads += float64(st.Reads)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(c),
			fmt.Sprintf("%.4f", float64(total)/float64(updates)),
			fmt.Sprintf("%.1f", qreads/8),
		})
	}
	return t, nil
}

// A4LevelBuffering realises the paper's closing remark: "One can also
// achieve other trade-offs between space and operation times by choosing to
// store all the levels of W explicitly and using buffers at the internal
// nodes" — the stride × buffering matrix for the append structure.
func A4LevelBuffering(s Scale) (*Table, error) {
	// A large alphabet and small branching give the character-granularity
	// tree enough height for the strides to differ.
	sigma := 2048
	n0 := 4096
	appends := s.pick(15000, 60000)
	nq := s.pick(5, 15)
	t := &Table{
		ID:     "A4",
		Title:  "ablation: materialisation stride × append buffering (§4.3 remark)",
		Note:   fmt.Sprintf("initial n = %d, %d appends, σ = %d", n0, appends, sigma),
		Header: []string{"stride", "buffered", "levels", "append I/Os", "query reads", "space bits/char"},
	}
	for _, stride := range []int{1, 2} {
		for _, buffered := range []bool{false, true} {
			col := workload.Uniform(n0, sigma, 113)
			d := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
			ax, err := core.BuildAppendIndex(d, col, core.AppendOptions{Branching: 5, Stride: stride, Buffered: buffered})
			if err != nil {
				return nil, err
			}
			stream := workload.Uniform(appends, sigma, 127)
			var total int64
			for _, ch := range stream.X {
				st, err := ax.Append(ch)
				if err != nil {
					return nil, err
				}
				total += int64(st.Reads + st.Writes)
			}
			qs := workload.RandomRanges(nq, sigma, 8, 131)
			reads, _, _, err := avgQuery(ax, qs)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(stride),
				fmt.Sprint(buffered),
				fmt.Sprint(ax.MaterialisedLevels()),
				fmt.Sprintf("%.3f", float64(total)/float64(appends)),
				fmt.Sprintf("%.1f", reads),
				fmt.Sprintf("%.1f", float64(ax.SizeBits())/float64(ax.Len())),
			})
		}
	}
	return t, nil
}

// A5CodeChoice ablates the run-length code: the paper uses gamma codes but
// notes "more generally, any method that compresses to within a constant
// factor of minimum size" works. This compares the total member-bitmap
// payload of the Theorem 2 structure under gamma vs delta coding of the
// gaps, across entropy regimes, against the information bound.
func A5CodeChoice(s Scale) (*Table, error) {
	n := s.pick(1<<14, 1<<16)
	sigma := 256
	t := &Table{
		ID:     "A5",
		Title:  "ablation: run-length code for the gap streams (gamma vs delta)",
		Note:   fmt.Sprintf("n = %d, σ = %d; payload of all Theorem 2 member bitmaps, bits per character", n, sigma),
		Header: []string{"theta", "H0", "gamma bits/char", "delta bits/char", "delta/gamma"},
	}
	for _, theta := range []float64{0, 1.0, 2.0} {
		col := workload.Zipf(n, sigma, theta, 137)
		h0 := entropy.H0String(col.X, sigma)
		d := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
		ix, err := core.BuildOptimalDefault(d, col)
		if err != nil {
			return nil, err
		}
		gammaBits, deltaBits, err := ix.PayloadUnderCodes()
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", theta),
			fmt.Sprintf("%.3f", h0),
			fmt.Sprintf("%.2f", float64(gammaBits)/float64(n)),
			fmt.Sprintf("%.2f", float64(deltaBits)/float64(n)),
			fmt.Sprintf("%.3f", float64(deltaBits)/float64(gammaBits)),
		})
	}
	return t, nil
}

// All lists every experiment in DESIGN.md order.
func All() []struct {
	ID  string
	Run func(Scale) (*Table, error)
} {
	return []struct {
		ID  string
		Run func(Scale) (*Table, error)
	}{
		{"E1", E1SpaceVsSigma},
		{"E2", E2QueryVsRange},
		{"E3", E3EntropySweep},
		{"E4", E4TradeOff},
		{"E5", E5ApproxEps},
		{"E6", E6Append},
		{"E7", E7PointIndex},
		{"E8", E8Dynamic},
		{"E9", E9RIDIntersection},
		{"E10", E10OutputOptimality},
		{"S1", S1ShardScaling},
		{"A1", A1Stride},
		{"A2", A2Branching},
		{"A3", A3PointBranching},
		{"A4", A4LevelBuffering},
		{"A5", A5CodeChoice},
	}
}

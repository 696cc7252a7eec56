package core

import "repro/internal/entropy"

// SpaceLedger itemises where a static index's bits go. The resident parts —
// the exact levels then the hashed sets level by level on an image of
// revision 2; on an image written before, also the prefix array A, the
// padding that block-aligns the tree structure and the structure blocks —
// sum to ImageBits on any index this package built (ResidentBits; cmd/secidx
// -inspect fails a file on which they do not).
type SpaceLedger struct {
	Rows  int64
	Sigma int
	H0    float64 // 0th-order entropy of the column, bits per row

	Levels     []LevelSpace // materialised levels, shallow to deep
	PrefixBits int64        // array A of an image written before: σ+1 entries of 64 bits
	PadBits    int64        // from the end of A to the first structure block (0 without A)
	LayoutBits int64        // blocked tree structure of an image of revision 1 or before, whole blocks
	ImageBits  int64        // the device's allocated size

	// RecordBits is the width of a node record in the structure blocks and
	// NodesPerBlock how many of them a block holds, both 0 on an image with
	// no tree layout. A record is its node's member's directory entry
	// (gap-stream length and exp-Golomb order); an image written before that
	// holds 128-bit records nothing reads.
	RecordBits, NodesPerBlock int
	// Directory is the directory stream of revision 2 or later by part, zero
	// on an image written before.
	Directory DirSpace
	// DirBits is the directory SizeBits charges outside the image, in the
	// container's metadata section: the directory stream, or on an image
	// written before the hashed sets' bases, lengths and cardinalities as the
	// metadata's varints spend them, plus 128 bits per exact member on a
	// legacy image. Such an image's exact directory is its node records,
	// counted in LayoutBits.
	DirBits int64
	// UsefulK is k = ⌊lg lg n⌋. HashedBits entries beyond it belong to levels
	// no query reads: only files written before maxJ followed the paper have
	// them.
	UsefulK int
}

// LevelSpace is one materialised level's share of the device.
type LevelSpace struct {
	Depth      int
	Members    int
	ExactBits  int64
	HashedBits []int64 // index j-1: the sets h_j(S) over universe 2^(2^j)
	// Dropped counts, per j, the sets listed but not stored because they are
	// no shorter than their members' exact sets (revision 3).
	Dropped []int
}

// PayloadBits returns the exact and the hashed gap-stream totals.
func (l SpaceLedger) PayloadBits() (exact, hashed int64) {
	for _, lv := range l.Levels {
		exact += lv.ExactBits
		for _, b := range lv.HashedBits {
			hashed += b
		}
	}
	return exact, hashed
}

// ResidentBits sums the parts that live on the device.
func (l SpaceLedger) ResidentBits() int64 {
	exact, hashed := l.PayloadBits()
	return exact + l.PrefixBits + l.PadBits + l.LayoutBits + hashed
}

// SpaceLedger decomposes the index's footprint (see the type). Summed without
// PadBits and with DirBits it equals SizeBits.
func (ax *Approx) SpaceLedger() SpaceLedger {
	tr := ax.tree
	counts := make([]int64, tr.sigma)
	for a := range counts {
		counts[a] = tr.prefix[a+1] - tr.prefix[a]
	}
	bb := int64(ax.disk.BlockBits())
	l := SpaceLedger{
		Rows:       tr.n,
		Sigma:      tr.sigma,
		H0:         entropy.H0(counts),
		PrefixBits: ax.aExt.Bits,
		PadBits:    (bb - ax.aExt.End()%bb) % bb,
		ImageBits:  ax.disk.AllocatedBits(),
		UsefulK:    ax.k,
	}
	if ax.layout != nil {
		l.LayoutBits, l.RecordBits = ax.layout.sizeBits(), ax.layout.recordBits()
		l.NodesPerBlock = perBlock(ax.disk, l.RecordBits)
		l.DirBits = ax.legacyDirBits() + ax.hashedDirBits()
	} else {
		l.Directory = planDirectory(ax.levels, ax.hmaps, ax.storedLevels()).space
		l.DirBits = l.Directory.Total()
	}
	for li, lv := range ax.levels {
		ls := LevelSpace{Depth: lv.depth, Members: len(lv.members)}
		for _, m := range lv.members {
			ls.ExactBits += m.ext.Bits
		}
		for _, arr := range ax.hmaps[li].perJ {
			var bits int64
			dropped := 0
			for i, e := range arr.exts {
				bits += e.Bits
				if arr.dropped(i) {
					dropped++
				}
			}
			ls.HashedBits = append(ls.HashedBits, bits)
			ls.Dropped = append(ls.Dropped, dropped)
		}
		l.Levels = append(l.Levels, ls)
	}
	return l
}

package iomodel

import (
	"fmt"

	"repro/internal/bitio"
)

// ChainFile is a growable bit stream stored as a chain of whole blocks.
// Dynamic structures (Theorems 4–7) use one ChainFile per bitmap so that an
// append touches only the tail block, while a full scan costs one I/O per
// chained block — the access pattern the paper's amortised analyses assume.
type ChainFile struct {
	d      *Disk
	blocks []BlockID
	bits   int64 // logical length in bits
}

// NewChainFile returns an empty chained file on d.
func NewChainFile(d *Disk) *ChainFile {
	return &ChainFile{d: d}
}

// OpenChainFile reconstitutes a chained file from its serialised state: the
// ordered block list and the logical bit length. The bits must fit the
// blocks (bits in ((len(blocks)-1)·B, len(blocks)·B], or 0 with no blocks).
func OpenChainFile(d *Disk, blocks []BlockID, bits int64) (*ChainFile, error) {
	bb := int64(d.BlockBits())
	if bits < 0 || bits > int64(len(blocks))*bb {
		return nil, fmt.Errorf("iomodel: chain of %d bits does not fit %d blocks", bits, len(blocks))
	}
	if len(blocks) > 0 && bits <= int64(len(blocks)-1)*bb {
		return nil, fmt.Errorf("iomodel: chain of %d bits leaves trailing empty blocks (%d blocks)", bits, len(blocks))
	}
	return &ChainFile{d: d, blocks: append([]BlockID(nil), blocks...), bits: bits}, nil
}

// Bits returns the logical length in bits.
func (f *ChainFile) Bits() int64 { return f.bits }

// Blocks returns the number of blocks owned by the file.
func (f *ChainFile) Blocks() int { return len(f.blocks) }

// BlockList returns a copy of the ordered block chain, for serialisation.
func (f *ChainFile) BlockList() []BlockID {
	return append([]BlockID(nil), f.blocks...)
}

// Append appends the contents of w at the tail, charging I/Os to t for the
// tail block and any newly allocated blocks.
func (f *ChainFile) Append(t *Touch, w *bitio.Writer) error {
	r := bitio.NewReader(w.Bytes(), w.Len())
	bb := int64(f.d.BlockBits())
	for r.Remaining() > 0 {
		inBlock := f.bits % bb
		if inBlock == 0 && f.bits == int64(len(f.blocks))*bb {
			f.blocks = append(f.blocks, f.d.AllocBlock())
		}
		blk := f.blocks[f.bits/bb]
		room := int(bb - inBlock)
		take := r.Remaining()
		if take > room {
			take = room
		}
		pos := f.d.BlockOff(blk) + inBlock
		for take > 0 {
			n := take
			if n > 64 {
				n = 64
			}
			v, _ := r.ReadBits(n)
			if err := t.WriteBits(pos, v, n); err != nil {
				return fmt.Errorf("iomodel: chain append: %w", err)
			}
			pos += int64(n)
			f.bits += int64(n)
			take -= n
		}
	}
	return nil
}

// ReadAll reads the whole file into a bitio.Reader, charging one read I/O
// per chained block.
func (f *ChainFile) ReadAll(t *Touch) (*bitio.Reader, error) {
	w := bitio.NewWriter(int(f.bits))
	if err := f.ReadAllInto(t, w); err != nil {
		return nil, err
	}
	return bitio.NewReader(w.Bytes(), w.Len()), nil
}

// ReadAllInto reads the whole file into w (which is reset first), charging
// the same per-block read I/Os as ReadAll. Passing a writer retained across
// operations makes repeated chain scans allocation-free — the streaming
// query and rebuild pipelines read member chains through pooled writers.
func (f *ChainFile) ReadAllInto(t *Touch, w *bitio.Writer) error {
	w.Reset()
	w.Grow(int(f.bits))
	bb := int64(f.d.BlockBits())
	rem := f.bits
	for i := 0; rem > 0; i++ {
		take := rem
		if take > bb {
			take = bb
		}
		pos := f.d.BlockOff(f.blocks[i])
		end := pos + take
		for pos < end {
			n := int(end - pos)
			if n > 64 {
				n = 64
			}
			v, err := t.ReadBits(pos, n)
			if err != nil {
				return fmt.Errorf("iomodel: chain read: %w", err)
			}
			w.WriteBits(v, n)
			pos += int64(n)
		}
		rem -= take
	}
	return nil
}

// Truncate resets the file to zero bits, returning all blocks to the disk's
// free list. Used by subtree rebuilds.
func (f *ChainFile) Truncate() {
	for _, b := range f.blocks {
		f.d.FreeBlock(b)
	}
	f.blocks = f.blocks[:0]
	f.bits = 0
}

// Replace truncates the file and appends the contents of w.
func (f *ChainFile) Replace(t *Touch, w *bitio.Writer) error {
	f.Truncate()
	return f.Append(t, w)
}

package main

import (
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/bitio"
	"repro/internal/cbitmap"
	"repro/internal/gamma"
	"repro/internal/iomodel"
)

// Probes are the traced run's per-layer measurements. A probe feeds the
// inputs of a sampled request to one layer's own exported entry point on a
// twin object, inside a span. Probes that together make up the request (the
// device reads, the plan, the decode, the merge; the log write, the apply,
// the publication) run under a "replay" span whose parent is the request's
// root span, and their shares of the root time are reported; probes of
// nested or consumer-side layers (gamma inside decode, bitio inside gamma,
// iterating the answer) hang off the root span beside the replay so that no
// time is counted twice.

type probeAcc struct {
	ns, units int64
	samples   []int64
}

type probes struct {
	tr    *tracer
	acc   map[string]*probeAcc
	notes map[string][]float64 // plain per-request figures (ratios)
}

func newProbes(tr *tracer) *probes {
	return &probes{tr: tr, acc: make(map[string]*probeAcc), notes: make(map[string][]float64)}
}

func (p *probes) note(name string, v float64) { p.notes[name] = append(p.notes[name], v) }

// run times fn in a span and books it under name with its unit count.
func (p *probes) run(req, parent int64, name string, units int64, fn func()) time.Duration {
	id := p.tr.start(req, parent, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	p.tr.end(id)
	p.book(name, d, units)
	return d
}

func (p *probes) book(name string, d time.Duration, units int64) {
	a := p.acc[name]
	if a == nil {
		a = &probeAcc{}
		p.acc[name] = a
	}
	a.ns += int64(d)
	a.units += units
	a.samples = append(a.samples, int64(d))
}

// perUnit is the probe's nanoseconds per unit of work.
func (p *probes) perUnit(name string) float64 {
	a := p.acc[name]
	if a == nil || a.units == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.units)
}

// pct is the probe's per-call latency percentile in microseconds.
func (p *probes) pct(name string, q float64) float64 {
	a := p.acc[name]
	if a == nil || len(a.samples) == 0 {
		return 0
	}
	return float64(percentile(sortedCopy(a.samples), q)) / 1e3
}

func (p *probes) count(name string) int {
	if a := p.acc[name]; a != nil {
		return len(a.samples)
	}
	return 0
}

// answerParts splits an answer's rows into four row-range parts with local
// row ids, the shape per-shard answers have.
func answerParts(n int64, rows []int64) []cbitmap.Shifted {
	const k = 4
	parts := make([]cbitmap.Shifted, 0, k)
	for i := int64(0); i < k; i++ {
		start, end := i*n/k, (i+1)*n/k
		a := sort.Search(len(rows), func(j int) bool { return rows[j] >= start })
		b := sort.Search(len(rows), func(j int) bool { return rows[j] >= end })
		local := make([]int64, b-a)
		for j := range local {
			local[j] = rows[a+j] - start
		}
		parts = append(parts, cbitmap.Shifted{Bm: cbitmap.MustFromPositions(end-start, local), Off: start})
	}
	return parts
}

// answerEnc is one sampled answer prepared for replay: its rows over
// universe n as parts with local row ids, and each part's encoded stream.
type answerEnc struct {
	n     int64
	parts []cbitmap.Shifted
	bufs  [][]byte
	bits  []int
	card  int64
	words int64
}

func prepAnswer(n int64, parts []cbitmap.Shifted) *answerEnc {
	a := &answerEnc{n: n, parts: parts}
	for _, pt := range parts {
		w := bitio.NewWriter(pt.Bm.SizeBits())
		pt.Bm.EncodeTo(w)
		a.bufs = append(a.bufs, w.Bytes())
		a.bits = append(a.bits, w.Len())
		a.card += pt.Bm.Card()
		a.words += int64(w.Len() / 64)
	}
	return a
}

// decode replays decoding the parts' streams into bitmaps, a step of every
// query. The encodings are the twin's own, so only a bug makes it fail.
func (p *probes) decode(req, parent int64, a *answerEnc) {
	if a.card == 0 {
		return
	}
	p.run(req, parent, "cbitmap.Decode", a.card, func() {
		for i, pt := range a.parts {
			if _, err := cbitmap.Decode(bitio.NewReader(a.bufs[i], a.bits[i]), pt.Bm.Card(), pt.Bm.Universe()); err != nil {
				panic(err)
			}
		}
	})
}

// union replays merging the shifted parts: a step of a sharded query (its
// parent is then the replay span), a stand-alone measurement otherwise.
func (p *probes) union(req, parent int64, a *answerEnc) time.Duration {
	if a.card == 0 {
		return 0
	}
	return p.run(req, parent, "cbitmap.UnionAll", a.card, func() {
		if _, err := cbitmap.UnionAll(a.n, a.parts...); err != nil {
			panic(err)
		}
	})
}

// nested replays the layers inside decode (gamma, and bitio inside gamma)
// and the consumer's iteration over the answer. They hang off the root span,
// beside the replay, so that no time is counted twice.
func (p *probes) nested(req, root int64, a *answerEnc, forEach func(func(int64) bool)) {
	if a.card == 0 {
		return
	}
	p.run(req, root, "gamma.Read", a.card, func() {
		for i, pt := range a.parts {
			r := bitio.NewReader(a.bufs[i], a.bits[i])
			for j := int64(0); j < pt.Bm.Card(); j++ {
				if _, err := gamma.Read(r); err != nil {
					panic(err)
				}
			}
		}
	})
	if a.words > 0 {
		p.run(req, root, "bitio.ReadBits", a.words, func() {
			for i := range a.parts {
				r := bitio.NewReader(a.bufs[i], a.bits[i])
				for r.Remaining() >= 64 {
					if _, err := r.ReadBits(64); err != nil {
						panic(err)
					}
				}
			}
		})
	}
	p.run(req, root, "cbitmap.Iter", a.card, func() {
		forEach(func(int64) bool { return true })
	})
}

// blockTwin serves one-block reads from a file the size of the workload's
// container in each FileDisk mode.
type blockTwin struct {
	f                   *os.File
	pread, mmap, cached *iomodel.FileDisk
	blocks              int64
	rng                 *rand.Rand
	w                   *bitio.Writer
}

func newBlockTwin(path string, seed int64) (*blockTwin, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	const bb = iomodel.DefaultBlockBits
	bt := &blockTwin{f: f, blocks: st.Size() * 8 / bb, rng: rngFor(seed, "block-twin"), w: bitio.NewWriter(bb)}
	if bt.blocks == 0 {
		f.Close()
		return nil, os.ErrInvalid
	}
	open := func(mode iomodel.FileMode, cache int) (*iomodel.FileDisk, error) {
		return iomodel.OpenFileDisk(f, iomodel.Config{BlockBits: bb, CacheBlocks: cache},
			iomodel.FileBackingConfig{TailBits: bt.blocks * bb, Mode: mode})
	}
	if bt.pread, err = open(iomodel.ModePread, 0); err == nil {
		if bt.mmap, err = open(iomodel.ModeMmap, 0); err == nil {
			bt.cached, err = open(iomodel.ModePread, int(bt.blocks))
		}
	}
	if err != nil {
		bt.close()
		return nil, err
	}
	// Fill the covering cache.
	t := bt.cached.NewTouch()
	for b := int64(0); b < bt.blocks; b++ {
		if err := t.ReaderInto(iomodel.Extent{Off: b * bb, Bits: bb}, bt.w); err != nil {
			bt.close()
			return nil, err
		}
	}
	t.Close()
	return bt, nil
}

func (bt *blockTwin) close() {
	for _, d := range []*iomodel.FileDisk{bt.pread, bt.mmap, bt.cached} {
		if d != nil {
			d.Close()
		}
	}
	bt.f.Close()
}

// read charges n seeded distinct-block reads to one session on fd.
func (bt *blockTwin) read(fd *iomodel.FileDisk, n int) {
	const bb = iomodel.DefaultBlockBits
	t := fd.NewTouch()
	for i := 0; i < n; i++ {
		b := bt.rng.Int63n(bt.blocks)
		if err := t.ReaderInto(iomodel.Extent{Off: b * bb, Bits: bb}, bt.w); err != nil {
			panic(err)
		}
	}
	t.Close()
}

// sweep measures every mode on its own, n single-block sessions each, so
// that each iomodel.*_ns_per_block exists whatever mode the workload uses.
func (p *probes) sweep(bt *blockTwin, n int) {
	for _, m := range []struct {
		name string
		fd   *iomodel.FileDisk
	}{{"iomodel.pread", bt.pread}, {"iomodel.mmap", bt.mmap}, {"iomodel.cached", bt.cached}} {
		for i := 0; i < n; i++ {
			p.run(0, 0, m.name, 1, func() { bt.read(m.fd, 1) })
		}
	}
}

// cowFirstWrite measures what the first write after a Freeze of d costs: the
// copy of the whole backing buffer. It rewrites one word with its own value,
// so the twin's contents do not change. The caller has just frozen d.
func (p *probes) cowFirstWrite(d *iomodel.Disk, req, parent int64) {
	p.run(req, parent, "iomodel.cow_first_write", 1, func() {
		t := d.NewTouch()
		v, err := t.ReadBits(0, 64)
		if err == nil {
			err = t.WriteBits(0, v, 64)
		}
		t.Close()
		if err != nil {
			panic(err)
		}
	})
}

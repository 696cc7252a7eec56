package cbitmap

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/bitio"
	"repro/internal/gamma"
)

// Ordered concatenation, the package's one tail copier: the kernel under
// every merge whose inputs hold disjoint position ranges in increasing order,
// and the end of every k-way union (see stream.go's header). Gaps are
// relative, so the union of such inputs is each input's codes in turn with
// only its first code re-based on the previous input's largest position.
// Pass 1 over a run of Members reads each first code, validates a member
// whose largest position is unknown, checks each boundary and sums the
// answer's exact length; pass 2 writes the re-based head codes and
// funnel-copies the tails into a buffer of that length. The answer is coded
// at the order of most input bits behind the heads, the first such on a tie,
// so the fewest bits are re-encoded (once, in pass 1, by reencodeInto into a
// pooled builder that pass 2 copies like a tail) and a one-member answer
// keeps its member's bits; it records no skip samples (ensureSamples).

// Member is one input of a concatenation: card positions gap-coded at order
// k in the bit range [start,end) of buf, the first gap counted from prev —
// the input's shift minus one. last is the largest position when it is known
// up front (a bitmap's, or a member an earlier pass validated) and negative
// otherwise; pass 1 then validates the member and sets it.
type Member struct {
	buf        []byte
	start, end int
	card       int64
	prev       int64
	last       int64
	k          uint8
	proved     bool  // this concatenation validated every position and bit
	head       int64 // pass 1: the first position
	tail, stop int   // pass 1: the bits [tail,stop) follow the first code
	// rfrom, rto: pass 1 recoded the tail of a member at another order than
	// the answer's into the bits [rfrom,rto) of the concatenation's scratch.
	rfrom, rto int
}

// Init sets m to the card positions gap-coded at order k in the bit range
// [start, start+bits) of r's stream. last is their largest position when an
// earlier pass over the same stable bits validated them — a replay, as
// InitDecodeValidated opens one — and negative otherwise: Concat then
// validates the member against its universe before it copies a bit of it.
func (m *Member) Init(r *bitio.Reader, start, bits int, card, last int64, k uint) error {
	if start < 0 || bits < 0 || start+bits > r.Len() {
		return fmt.Errorf("cbitmap: member bits [%d,%d) outside [0,%d]", start, start+bits, r.Len())
	}
	if k > gamma.MaxOrder {
		return fmt.Errorf("%w: member coded at order %d, above %d", ErrCorrupt, k, gamma.MaxOrder)
	}
	// Field by field: a composite literal would be built aside and copied.
	m.buf, m.start, m.end, m.card, m.prev, m.last, m.k, m.proved = r.Bytes(), start, start+bits, card, -1, -1, uint8(k), false
	if card > 0 && last >= 0 {
		m.last = last
	}
	return nil
}

// ValidatedLast reports the largest position of a member the last Concat
// over it validated, every position and every bit of its range: what a
// replay may take on faith (Init with that last). ok is false for a member
// whose last was known up front, an empty one, and one whose range holds
// bits past its last code.
func (m *Member) ValidatedLast() (last int64, ok bool) { return m.last, m.proved }

// Concat returns the union over [0,n) of members that hold disjoint position
// ranges in increasing member order — a point query's cover, whose members
// lie in record order inside one character. The promise is checked, not
// trusted: a member that does not start above its predecessor's largest
// position fails typed ErrCorrupt, where the general merge would have
// answered a different question. A member whose last is unknown is validated
// against [0,n) first, so a corrupt one fails ErrCorrupt too. The answer's
// bytes, order, cardinality and largest position are those MergeStreams
// gives over replay views of the same members.
func Concat(n int64, ms []Member) (*Bitmap, error) {
	// Pass 1: heads, validation and boundaries, and the answer's length
	// should every member be at the first one's order.
	var s Stream // the validating scan of a member whose last is unknown
	prev, card, total := int64(-1), int64(0), 0
	k, mixed := uint8(0), false
	for i := range ms {
		m := &ms[i]
		if m.card == 0 {
			continue
		}
		validate := m.last < 0
		var err error
		if validate {
			err = m.openScan(&s, n)
		} else {
			err = m.readHead()
		}
		if err != nil {
			return nil, err
		}
		if m.head <= prev {
			return nil, fmt.Errorf("%w: ordered member %d starts at position %d, not above %d", ErrCorrupt, i, m.head, prev)
		}
		m.stop = m.end
		if validate {
			if !s.scan() {
				return nil, s.err
			}
			// Copy exactly the scanned bits; a range with bits past its last
			// code proves nothing a replay could take on faith.
			m.last, m.stop, m.proved = s.prev, s.r.Pos(), s.r.Remaining() == 0
		}
		if card == 0 {
			k = m.k
		}
		mixed = mixed || m.k != k
		total += gamma.LenK(uint64(m.head-prev), uint(m.k)) + m.stop - m.tail
		prev = m.last
		card += m.card
	}
	var sc *Builder
	if mixed {
		// The vote, and the exact length at its order: a member at another
		// order is decoded once, its tail recoded into scratch that pass 2
		// copies.
		k = dominantOrder(ms)
		sc = builderPool.Get().(*Builder)
		sc.reset(0, false)
		defer sc.release()
		sc.k = uint(k)
		total, prev = 0, -1
		for i := range ms {
			m := &ms[i]
			if m.card == 0 {
				continue
			}
			total += gamma.LenK(uint64(m.head-prev), uint(k))
			if m.k == k {
				total += m.stop - m.tail
			} else {
				m.rfrom = sc.w.Len()
				if err := m.recode(sc); err != nil {
					return nil, err
				}
				m.rto = sc.w.Len()
				total += m.rto - m.rfrom
			}
			prev = m.last
		}
	}

	// Pass 2: write.
	o := concatWriter{buf: make([]byte, (total+7)/8)}
	prev = -1
	for i := range ms {
		m := &ms[i]
		if m.card == 0 {
			continue
		}
		o.code(uint64(m.head-prev), uint(k))
		if m.k == k {
			o.copy(m.buf, m.tail, m.stop)
		} else {
			o.copy(sc.w.Bytes(), m.rfrom, m.rto)
		}
		prev = m.last
	}
	o.flush()
	return &Bitmap{n: n, card: card, buf: o.buf, bits: total, last: prev, k: k}, nil
}

// dominantOrder returns the order of the nonempty members (after pass 1)
// that codes the most of their bits behind the heads, each range as it
// stands, the first such on a tie.
func dominantOrder(ms []Member) uint8 {
	var bits [gamma.MaxOrder + 1]int
	for i := range ms {
		if ms[i].card > 0 {
			bits[ms[i].k] += ms[i].end - ms[i].tail
		}
	}
	var k uint8
	best := -1
	for i := range ms {
		if b := bits[ms[i].k]; ms[i].card > 0 && b > best {
			k, best = ms[i].k, b
		}
	}
	return k
}

// openScan opens s as the validating stream over m's bits and universe
// [0,n) and takes m's head from it.
func (m *Member) openScan(s *Stream, n int64) error {
	if n <= 0 {
		// vmax = 0 would read as "validation disabled"; an empty universe
		// cannot hold any position.
		return fmt.Errorf("%w: member of %d positions in empty universe [0,%d)", ErrCorrupt, m.card, n)
	}
	s.set(m.card, m.prev+1, n, -1, uint(m.k))
	s.r.Init(m.buf, m.end)
	s.r.Seek(m.start)
	head, ok := s.Next()
	if !ok {
		return s.err
	}
	m.head, m.tail = head, s.r.Pos()
	return nil
}

// readHead decodes the first code of a member whose last is known: one peek
// in the common case, gamma.ReadK for a code longer than the peek or cut
// short by the member's end.
func (m *Member) readHead() error {
	w, avail := bitio.Window(m.buf, m.start), min(m.end-m.start, 64)
	if avail < 64 {
		w &= ^uint64(0) << uint(64-max(avail, 0))
	}
	if total := 2*bits.LeadingZeros64(w) + 1 + int(m.k); total <= avail {
		m.head, m.tail = m.prev+int64(w>>uint(64-total))-(1<<m.k-1), m.start+total
		return nil
	}
	var r bitio.Reader
	r.Init(m.buf, m.end)
	r.Seek(m.start)
	g, err := gamma.ReadK(&r, uint(m.k))
	if err != nil {
		return fmt.Errorf("%w: member head: %v", ErrCorrupt, err)
	}
	m.head, m.tail = m.prev+int64(g), r.Pos()
	return nil
}

// recode appends m's tail to sc at sc's order. It must increase and end at
// m's last, which a replay took on faith: corrupt bits fail typed instead.
func (m *Member) recode(sc *Builder) error {
	var s Stream
	s.set(m.card-1, m.head+1, 0, m.last, uint(m.k))
	s.r.Init(m.buf, m.stop)
	s.r.Seek(m.tail)
	sc.prev = m.head
	return s.reencodeInto(sc)
}

// concatWriter writes bits into a buffer allocated at the answer's exact
// size. Bits collect in a 64-bit accumulator that reaches the buffer a whole
// word at a time, so the buffer never grows and no byte is written twice.
type concatWriter struct {
	buf  []byte
	j    int    // bytes of buf written
	acc  uint64 // pending bits, right-aligned
	nacc uint   // number of pending bits, < 64
}

// put appends the n low bits of v (n <= 64; v's higher bits are zero).
func (o *concatWriter) put(v uint64, n uint) {
	if n < 64-o.nacc {
		o.acc = o.acc<<n | v
		o.nacc += n
		return
	}
	rem := n - (64 - o.nacc)
	binary.BigEndian.PutUint64(o.buf[o.j:], o.acc<<(64-o.nacc)|v>>rem)
	o.j += 8
	o.acc, o.nacc = v&(1<<rem-1), rem
}

// code appends the order-k code of g >= 1, as gamma.WriteK writes it.
func (o *concatWriter) code(g uint64, k uint) {
	u := g - 1 + 1<<k
	l := uint(bits.Len64(u))
	if n := 2*l - 1 - k; n <= 64 {
		o.put(u, n)
		return
	}
	o.put(0, l-1-k)
	o.put(u, l)
}

// copy appends the bits [from,to) of src: the funnel copy. Once the first
// output word has taken the pending bits and the source bits after them,
// every further output word is the 64 source bits that follow, one unaligned
// load and one store, whatever the two bit alignments.
func (o *concatWriter) copy(src []byte, from, to int) {
	n := uint(to - from)
	if n < 64-o.nacc {
		if n > 0 {
			o.put(bitio.Window(src, from)>>(64-n), n)
		}
		return
	}
	head := 64 - o.nacc // at nacc = 0 the shifts by 64 give 0, as Go defines them
	binary.BigEndian.PutUint64(o.buf[o.j:], o.acc<<head|bitio.Window(src, from)>>o.nacc)
	j := o.j + 8
	from += int(head)
	buf, sh := o.buf, uint(from&7)
	i := from >> 3
	for ; to-from >= 64 && i+9 <= len(src); i, from, j = i+8, from+64, j+8 {
		// bitio.Window's fast path, inline: it is too large to inline itself.
		binary.BigEndian.PutUint64(buf[j:], binary.BigEndian.Uint64(src[i:])<<sh|uint64(src[i+8])>>(8-sh))
	}
	for ; to-from >= 64; from, j = from+64, j+8 {
		binary.BigEndian.PutUint64(buf[j:], bitio.Window(src, from))
	}
	o.j, o.nacc = j, uint(to-from)
	o.acc = 0
	if o.nacc > 0 {
		o.acc = bitio.Window(src, from) >> (64 - o.nacc)
	}
}

// flush writes the pending bits, zero-padded to the byte.
func (o *concatWriter) flush() {
	v := o.acc << (64 - o.nacc)
	for n := int(o.nacc); n > 0; n -= 8 {
		o.buf[o.j] = byte(v >> 56)
		o.j++
		v <<= 8
	}
}

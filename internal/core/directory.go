package core

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/gamma"
	"repro/internal/iomodel"
)

// The member directory of static payload revisions 2 and 3 is one bit stream
// in the static metadata, which the container checksums. The image holds the gap
// streams alone: the exact levels from bit 0, level after level with members
// in record order, then each level's stored hashed sets grouped by j ("we
// group the sets according to what hash function was used"). Every offset is
// the sum of the lengths before it, so the stream stores lengths only, and
// each as its excess over the k+1 bits every one of its card codes of order
// k takes at least: the reader knows a member's card from the tree, and a
// set's from its cardWord. Level by level the stream holds:
//
//   - the members' orders as runs: an order (orderBits), then the gamma code
//     of how many adjacent members take it;
//   - the order of the level's length excesses (orderBits), then each
//     member's in that exp-Golomb order;
//   - for each j that lists a set at the level, the orders of the stored
//     sets' length excesses, of their collision words and of the dropped
//     sets' priced lengths, then, per listed set, a bit saying whether it is
//     stored. A stored set follows with its collisionWord and its length
//     excess, a dropped one with its priced length's excess over its exact
//     member's length, plus one. The listed sets are those hashedReachable
//     keeps, which the reader derives. A set is stored where it is shorter
//     than its exact member, and the reader refuses a directory that breaks
//     that rule.
//
// Revision 2 lists only stored sets, every listed set, with no bit, no
// third order, and each set's cardWord in place of its collisionWord.
// Each order is the one gamma.Costs finds shortest for the values it codes.
// Revisions 0 and 1 kept the lengths and orders in the blocked tree layout
// (layout.go), a fixed-width record per tree node padded to whole blocks.

// orderBits is the width of an order in the stream: it holds gamma.MaxOrder.
const orderBits = 6

// DirSpace is what a directory stream spends, by part.
type DirSpace struct {
	LengthBits int64 // the members' lengths and each level's order for them
	OrderBits  int64 // the members' orders, as runs
	HashedBits int64 // the hashed sets' stored bits, lengths and collision words, with their orders
	PricedBits int64 // the part of HashedBits that prices dropped sets: their lengths and orders
}

// Total returns the stream's length in bits.
func (s DirSpace) Total() int64 { return s.LengthBits + s.OrderBits + s.HashedBits }

// dirPlan is a directory stream's codes: the orders its values take, and
// what each part costs.
type dirPlan struct {
	levels []levelCodes
	space  DirSpace
}

// levelCodes is one level's share of a directory stream.
type levelCodes struct {
	lenK uint
	runs []orderRun
	// sets holds, per j, the orders of the stored sets' lengths and
	// collision (or card) words and of the dropped sets' priced lengths; nil
	// for a j that lists no set at this level.
	sets []*[3]uint
}

// orderRun is n adjacent members of a level at order k.
type orderRun struct {
	k uint8
	n uint64
}

// excess is the value the directory codes for a gap stream of bits bits
// holding card codes of order k: its bits beyond the k+1 each code takes at
// least, plus one.
func excess(bits, card int64, k uint8) uint64 { return uint64(bits-card*int64(k+1)) + 1 }

// setWord is stored set i's card as the directory codes it: its collisionWord
// against its member m, or the cardWord of a revision-2 array.
func (arr *hashArray) setWord(i int, m *member) uint64 {
	if arr.priced == nil {
		return arr.cardWord(i)
	}
	return arr.collisionWord(i, m.rows())
}

// pricedWord is dropped set i's priced length as the directory codes it: its
// excess over its exact member m's length, plus one.
func (arr *hashArray) pricedWord(i int, m *member) uint64 {
	return uint64(arr.priced[i]-m.ext.Bits) + 1
}

// planDirectory prices the directory of levels and the first groups hashed
// levels of hmaps (none for the exact directory alone).
func planDirectory(levels []matLevel, hmaps []hashLevel, groups int) dirPlan {
	p := dirPlan{levels: make([]levelCodes, len(levels))}
	for li, lv := range levels {
		lc := &p.levels[li]
		var c gamma.Costs
		for i, m := range lv.members {
			c.Add(excess(m.ext.Bits, m.rows(), m.k))
			if i == 0 || m.k != lv.members[i-1].k {
				lc.runs = append(lc.runs, orderRun{k: m.k})
			}
			lc.runs[len(lc.runs)-1].n++
		}
		k, bits := c.Best()
		lc.lenK = k
		p.space.LengthBits += orderBits + bits
		for _, r := range lc.runs {
			p.space.OrderBits += orderBits + int64(gamma.Len(r.n))
		}
		lc.sets = make([]*[3]uint, groups)
		for j := range groups {
			arr := &hmaps[li].perJ[j]
			var lens, cards, priced gamma.Costs
			listed := int64(0)
			for i := range arr.cards {
				m := &lv.members[i]
				switch {
				case arr.stored(i):
					lens.Add(excess(arr.exts[i].Bits, arr.cards[i], arr.orders[i]))
					cards.Add(arr.setWord(i, m))
				case arr.dropped(i):
					priced.Add(arr.pricedWord(i, m))
				default:
					continue
				}
				listed++
			}
			if listed == 0 {
				continue
			}
			lk, lb := lens.Best()
			ck, cb := cards.Best()
			pk, pb := priced.Best()
			lc.sets[j] = &[3]uint{lk, ck, pk}
			p.space.HashedBits += 2*orderBits + lb + cb
			if arr.priced != nil {
				p.space.HashedBits += listed + orderBits + pb
				p.space.PricedBits += orderBits + pb
			}
		}
	}
	return p
}

// write returns the stream p prices.
func (p *dirPlan) write(levels []matLevel, hmaps []hashLevel) *bitio.Writer {
	w := bitio.NewWriter(int(p.space.Total()))
	for li, lv := range levels {
		lc := &p.levels[li]
		for _, r := range lc.runs {
			w.WriteBits(uint64(r.k), orderBits)
			gamma.Write(w, r.n)
		}
		w.WriteBits(uint64(lc.lenK), orderBits)
		for _, m := range lv.members {
			gamma.WriteK(w, excess(m.ext.Bits, m.rows(), m.k), lc.lenK)
		}
		for j, ks := range lc.sets {
			if ks == nil {
				continue
			}
			arr := &hmaps[li].perJ[j]
			w.WriteBits(uint64(ks[0]), orderBits)
			w.WriteBits(uint64(ks[1]), orderBits)
			if arr.priced != nil {
				w.WriteBits(uint64(ks[2]), orderBits)
			}
			for i := range arr.cards {
				m := &lv.members[i]
				switch {
				case arr.stored(i):
					if arr.priced != nil {
						w.WriteBit(1)
					}
					gamma.WriteK(w, arr.setWord(i, m), ks[1])
					gamma.WriteK(w, excess(arr.exts[i].Bits, arr.cards[i], arr.orders[i]), ks[0])
				case arr.dropped(i):
					w.WriteBit(0)
					gamma.WriteK(w, arr.pricedWord(i, m), ks[2])
				}
			}
		}
	}
	return w
}

// cardWordOf returns the cardWord of a set whose collision word, less one, is
// w, for member m: its card is m's less its collisions, at least one.
func cardWordOf(w uint64, m *member) (uint64, error) {
	coll, bit := w>>1, w&1
	if coll >= uint64(m.rows()) {
		return 0, fmt.Errorf("core: hashed set of %d collisions for a member of %d rows", coll, m.rows())
	}
	return uint64(m.rows()-int64(coll))<<1 | bit, nil
}

// checkPlaced reports an error unless ax's streams lie where a reader of its
// directory places them: the exact members back to back from bit 0, level
// after level, then the stored hashed sets by (level, j, member), filling the
// image, each at least as long as its codes' least bits (excess).
func (ax *Approx) checkPlaced() error {
	var off int64
	for _, lv := range ax.levels {
		for _, m := range lv.members {
			if m.ext.Off != off || m.ext.Bits < m.rows()*int64(m.k+1) {
				return fmt.Errorf("core: level %d member %+v of %d rows at order %d, not from bit %d", lv.depth, m.ext, m.rows(), m.k, off)
			}
			off += m.ext.Bits
		}
	}
	for li, hl := range ax.hmaps {
		for j, arr := range hl.perJ[:ax.k] {
			for i, ext := range arr.exts {
				if arr.stored(i) && (ext.Off != off || ext.Bits < arr.cards[i]*int64(arr.orders[i]+1)) {
					return fmt.Errorf("core: hashed set (level %d, j=%d) %+v of %d values at order %d, not from bit %d", li, j+1, ext, arr.cards[i], arr.orders[i], off)
				}
				off += ext.Bits
			}
		}
	}
	if tail := ax.disk.AllocatedBits(); off != tail {
		return fmt.Errorf("core: streams end at bit %d of a %d-bit image", off, tail)
	}
	return nil
}

// readDirectory decodes the directory stream r of the given revision (2 or
// 3) into ax's levels, whose members the tree gave, and stored hashed levels
// j, listing the sets of the members whose covers count minz[li][mi] rows at
// fewest where hashedReachable keeps them. It places every stream on the
// image of tail bits, which they must fill, and reads r to its end.
func (ax *Approx) readDirectory(r *bitio.Reader, revision int, minz [][]int64, stored int, tail int64) error {
	var used, exactEnd int64 // image bits the lengths read cover; the exact levels' share
	// length decodes the length of a stream of card codes of order k, its
	// excess coded at order lenK.
	length := func(lenK uint, card int64, k uint8) (int64, error) {
		v, err := gamma.ReadK(r, lenK)
		if err != nil {
			return 0, err
		}
		least := card * int64(k+1)
		if v-1 > uint64(tail-used) || least > tail-used-int64(v-1) {
			return 0, fmt.Errorf("core: directory lengths sum past the %d-bit image", tail)
		}
		bits := int64(v-1) + least
		used += bits
		return bits, nil
	}
	order := func() (uint, error) {
		k, err := r.ReadBits(orderBits)
		if err == nil && k > gamma.MaxOrder {
			err = fmt.Errorf("core: directory order %d above %d", k, gamma.MaxOrder)
		}
		return uint(k), err
	}
	for li := range ax.levels {
		members := ax.levels[li].members
		for mi := 0; mi < len(members); {
			k, err := order()
			if err != nil {
				return err
			}
			n, err := gamma.Read(r)
			if err != nil {
				return err
			}
			if n > uint64(len(members)-mi) {
				return fmt.Errorf("core: order run of %d members past the %d left at level %d", n, len(members)-mi, li)
			}
			for end := mi + int(n); mi < end; mi++ {
				members[mi].k = uint8(k)
			}
		}
		lenK, err := order()
		if err != nil {
			return err
		}
		for mi := range members {
			m := &members[mi]
			if m.ext.Bits, err = length(lenK, m.rows(), m.k); err != nil {
				return err
			}
			m.ext.Off = exactEnd
			exactEnd += m.ext.Bits
		}
		hl := hashLevel{perJ: make([]hashArray, stored)}
		for j := range hl.perJ {
			arr := &hl.perJ[j]
			var ks [3]uint // the orders of lengths, card words and (revision 3) priced lengths
			orders := 2
			if revision >= 3 {
				arr.priced, orders = make([]int64, len(members)), 3
			}
			listed := false
			for mi := range members {
				m := &members[mi]
				store := hashedReachable(minz[li][mi], j+1)
				if store && !listed { // the group's orders precede its first set
					for o := range orders {
						if ks[o], err = order(); err != nil {
							return err
						}
					}
					listed = true
				}
				if store && revision >= 3 {
					bit, err := r.ReadBit()
					if err != nil {
						return err
					}
					if store = bit == 1; !store {
						v, err := gamma.ReadK(r, ks[2])
						if err != nil {
							return err
						}
						if v-1 > uint64(tail) {
							return fmt.Errorf("core: hashed set priced %d bits over its %d-bit member, past the %d-bit image", v-1, m.ext.Bits, tail)
						}
						arr.priced[mi] = m.ext.Bits + int64(v-1)
					}
				}
				if !store {
					arr.exts, arr.cards, arr.orders = append(arr.exts, iomodel.Extent{}), append(arr.cards, 0), append(arr.orders, 0)
					continue
				}
				w, err := gamma.ReadK(r, ks[1])
				if err == nil && revision >= 3 {
					w, err = cardWordOf(w-1, m)
				}
				if err == nil {
					err = arr.setCard(w, true, 1<<(j+1), *m)
				}
				if err != nil {
					return err
				}
				bits, err := length(ks[0], arr.cards[mi], arr.orders[mi])
				if err != nil {
					return err
				}
				if revision >= 3 && bits >= m.ext.Bits {
					return fmt.Errorf("core: hashed set of %d bits stored, not shorter than its %d-bit member", bits, m.ext.Bits)
				}
				arr.exts = append(arr.exts, iomodel.Extent{Bits: bits})
			}
		}
		ax.hmaps = append(ax.hmaps, hl)
	}
	if used != tail || r.Remaining() != 0 {
		return fmt.Errorf("core: directory of %d bits covers %d of a %d-bit image, %d bits left unread", r.Len(), used, tail, r.Remaining())
	}
	off := exactEnd
	for _, hl := range ax.hmaps {
		for _, arr := range hl.perJ {
			for i := range arr.exts {
				if arr.stored(i) {
					arr.exts[i].Off = off
					off += arr.exts[i].Bits
				}
			}
		}
	}
	return nil
}

package core

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bitio"
	"repro/internal/cbitmap"
	"repro/internal/gamma"
	"repro/internal/hashutil"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// Workers is the encoder budget builds draw on: a counting semaphore with one
// slot per level task that may scatter and encode at once. A build holds one
// slot throughout and takes more, while any are free, for its other levels, so
// builds sharing one (shard.Build's shards) run no more encoders than slots.
type Workers chan struct{}

// NewWorkers returns a budget of n slots; n < 1 selects GOMAXPROCS.
func NewWorkers(n int) Workers {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return make(Workers, n)
}

// levelTask is one level under construction: a materialised level of the
// tree, or a level of alphabet ranges (BuildRangeLevels). A level depends on
// no other, so tasks run concurrently, each into private writers; extents
// are relative to their writer until it is placed.
type levelTask struct {
	depth   int
	members []member
	ordered bool // code each run of members at its best order (a tree's); else gamma
	// runs holds the index of each run's first member, in order: a run is a
	// level's adjacent leaves of one character, or any other member alone.
	runs   []int
	exact  *bitio.Writer // the members' gap streams, concatenated
	hashed *bitio.Writer // the (j, member) hashed streams; nil without hash functions
	perJ   []hashArray
	err    error
}

// memberLevel returns the index in depths, the sorted materialised depths, of
// the level whose member v is — an internal node's own depth, a leaf's first
// materialised depth at or below it — or -1 when v is no member.
func memberLevel(depths []int, v *Node) int {
	li := sort.SearchInts(depths, v.Depth)
	if v.IsLeaf() || (li < len(depths) && depths[li] == v.Depth) {
		return li
	}
	return -1
}

// eachMember calls f for every node that is a member, with its level's index
// li in depths and its index mi among the level's members: nodes come in
// preorder, which is record order for the members of one level.
func eachMember(tr *Tree, depths []int, f func(v *Node, li, mi int)) {
	counts := make([]int, len(depths))
	for _, v := range tr.Nodes {
		if li := memberLevel(depths, v); li >= 0 {
			f(v, li, counts[li])
			counts[li]++
		}
	}
}

// newLevelTasks assigns each node to the level memberLevel gives it, each
// level's member slice sized by a counting pass, and starts a run at every
// member but a leaf that continues its level's run of one character.
func newLevelTasks(tr *Tree, stride int) []levelTask {
	depths := materialDepths(tr.Height, stride)
	tasks := make([]levelTask, len(depths))
	counts := make([]int, len(depths))
	eachMember(tr, depths, func(_ *Node, li, _ int) { counts[li]++ })
	for li, depth := range depths {
		tasks[li].depth = depth
		tasks[li].members = make([]member, 0, counts[li])
		tasks[li].ordered = true
	}
	one := func(v *Node) bool { return v != nil && v.IsLeaf() && v.CharLo == v.CharHi }
	last := make([]*Node, len(depths)) // each level's latest member node
	eachMember(tr, depths, func(v *Node, li, mi int) {
		t := &tasks[li]
		t.members = append(t.members, member{start: v.Start, end: v.End, internal: !v.IsLeaf()})
		if p := last[li]; !one(v) || !one(p) || p.CharLo != v.CharLo {
			t.runs = append(t.runs, mi)
		}
		last[li] = v
	})
	return tasks
}

// buildLevels is BuildOptimal with the hashed sets under hs (none for an
// exact-only index) encoded alongside: the tree, one task per materialised
// level on the caller's slot of ws and every other slot free, then the exact
// levels placed from bit 0 on an image reserved once from the stream
// lengths. The tasks return with their hashed writers still to place.
func buildLevels(ws Workers, d *iomodel.Disk, col workload.Column, opts OptimalOptions, hs []hashutil.SplitXOR) (*Optimal, []levelTask, error) {
	ws <- struct{}{}
	defer func() { <-ws }()
	opts.fill()
	tr, err := BuildTree(col, opts.Branching)
	if err != nil {
		return nil, nil, err
	}
	ox := newOptimal(d, tr, opts)
	tasks := newLevelTasks(tr, opts.Stride)
	encodeLevels(ws, tasks, tr.prefix, col.X, hs)
	var total int64
	for i := range tasks {
		t := &tasks[i]
		if t.err != nil {
			return nil, nil, t.err
		}
		total += int64(t.exact.Len())
		if t.hashed != nil {
			total += int64(t.hashed.Len())
		}
	}
	d.Reserve(total)
	// Adjacent AllocStream calls share blocks with no padding, so placing
	// whole levels in order leaves the bytes and extents of member-at-a-time
	// allocation (pinned by the build differential test).
	for i := range tasks {
		t := &tasks[i]
		t.place(d)
		ox.levels = append(ox.levels, newMatLevel(t.depth, t.members))
	}
	d.ResetStats()
	return ox, tasks, nil
}

// RangeLevel is one level of alphabet ranges of equal width: range k covers
// characters [k·Width, (k+1)·Width), and the gap stream of its rows is
// Exts[k], of Cards[k] rows.
type RangeLevel struct {
	Width int64
	Exts  []iomodel.Extent
	Cards []int64
}

// entry implements memberDir: a level's ranges are its members.
func (lv *RangeLevel) entry(i int) (iomodel.Extent, int64, uint) { return lv.Exts[i], lv.Cards[i], 0 }

// BuildRangeLevels encodes col on d as one level of alphabet ranges per
// width, in order: the level of width w cuts [0,span) into ⌈span/w⌉ ranges,
// each holding the rows of its characters below σ, so a range wholly past σ
// is an empty stream. A level is a level task with a member per range, run on
// up to GOMAXPROCS workers and placed by one AllocStream.
func BuildRangeLevels(d *iomodel.Disk, col workload.Column, span int64, widths []int64) ([]RangeLevel, error) {
	prefix, err := col.Prefix()
	if err != nil {
		return nil, err
	}
	sigma := int64(col.Sigma)
	tasks := make([]levelTask, len(widths))
	for li, w := range widths {
		tasks[li].depth = li
		for lo := int64(0); lo < span; lo += w {
			tasks[li].members = append(tasks[li].members,
				member{start: prefix[min(lo, sigma)], end: prefix[min(lo+w, sigma)]})
		}
	}
	ws := NewWorkers(0)
	ws <- struct{}{} // the caller's slot, as encodeLevels expects
	encodeLevels(ws, tasks, prefix, col.X, nil)
	levels := make([]RangeLevel, len(tasks))
	for li := range tasks {
		t := &tasks[li]
		if t.err != nil {
			return nil, t.err
		}
	}
	for li := range tasks {
		t := &tasks[li]
		t.place(d)
		lv := RangeLevel{Width: widths[li], Exts: make([]iomodel.Extent, len(t.members)), Cards: make([]int64, len(t.members))}
		for k, m := range t.members {
			lv.Exts[k], lv.Cards[k] = m.ext, m.card
		}
		levels[li] = lv
	}
	return levels, nil
}

// place allocates t's exact streams on d as one stream and moves its members'
// extents onto the device.
func (t *levelTask) place(d *iomodel.Disk) {
	off := d.AllocStream(t.exact).Off
	putChainWriter(t.exact)
	for mi := range t.members {
		t.members[mi].ext.Off += off
	}
}

// encodeLevels runs every task over the column x, whose records prefix counts
// per character, with 32-bit slab entries whenever the rows fit in them.
func encodeLevels(ws Workers, tasks []levelTask, prefix []int64, x []uint32, hs []hashutil.SplitXOR) {
	if int64(len(x)) <= math.MaxUint32 {
		runLevels[uint32](ws, tasks, prefix, x, hs)
	} else {
		runLevels[int64](ws, tasks, prefix, x, hs)
	}
}

// runLevels runs every task, on the caller's goroutine and on one helper per
// slot of ws free at the start, and returns once all have finished; a worker
// allocates its scratch (the slab) when it gets its first task.
func runLevels[P rowID](ws Workers, tasks []levelTask, prefix []int64, x []uint32, hs []hashutil.SplitXOR) {
	var next atomic.Int32
	work := func() {
		var sc *levelScratch[P]
		for i := int(next.Add(1)) - 1; i < len(tasks); i = int(next.Add(1)) - 1 {
			if sc == nil {
				sc = newLevelScratch[P](prefix, x)
			}
			tasks[i].err = runLevel(&tasks[i], sc, hs)
		}
	}
	free := func() bool {
		select {
		case ws <- struct{}{}:
			return true
		default:
			return false
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < len(tasks) && free(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-ws }()
			work()
		}()
	}
	work()
	wg.Wait()
}

// runLevel scatters the column into t's members and encodes, from that one
// slab, each member's exact stream — a tree member's at the exp-Golomb order
// that codes it, or its run of leaves of one character, in the fewest bits;
// an alphabet range's in gamma — and then its hashed set under every
// function of hs that a query can select (hashedReachable; the others keep
// their place empty), at the order hashedOrder derives where that is shorter
// than gamma, else in gamma, grouped by j ("we group
// the sets according to what hash function was used") so a cover chunk at
// one j is contiguous. A hashed set no shorter than its member's exact set
// is rolled back and priced instead: a query reads the exact set in its
// place.
func runLevel[P rowID](t *levelTask, sc *levelScratch[P], hs []hashutil.SplitXOR) error {
	if err := sc.scatter(t.members); err != nil {
		return fmt.Errorf("core: depth %d: %w", t.depth, err)
	}
	var enc cbitmap.StreamEncoder
	t.exact = getChainWriter()
	need, hneed := 0, 0
	var minz []int64
	if len(hs) > 0 {
		minz = make([]int64, len(t.members))
	}
	for mi, m := range t.members {
		need += gapBits(m.end-m.start, int64(len(sc.x)))
		if minz == nil {
			continue
		}
		minz[mi] = minRows(sc.prefix, m)
		for j, h := range hs {
			if hashedReachable(minz[mi], j+1) {
				hneed += gapBits(min(m.end-m.start, h.Range()), h.Range())
			}
		}
	}
	t.exact.Grow(need)
	for r := 0; t.ordered && r < len(t.runs); r++ {
		g, h := t.runs[r], len(t.members)
		if r+1 < len(t.runs) {
			h = t.runs[r+1]
		}
		var c gamma.Costs
		for _, m := range t.members[g:h] {
			cbitmap.AddGaps(&c, sc.slab[m.start:m.end])
		}
		k, _ := c.Best()
		for i := g; i < h; i++ {
			t.members[i].k = uint8(k)
		}
	}
	for mi := range t.members {
		m := &t.members[mi]
		startBit := t.exact.Len()
		enc.Init(t.exact)
		cbitmap.AddSortedK(&enc, sc.slab[m.start:m.end], uint(m.k))
		if enc.Card() != m.end-m.start {
			return fmt.Errorf("core: depth %d member [%d,%d): encoded %d of %d records",
				t.depth, m.start, m.end, enc.Card(), m.end-m.start)
		}
		m.ext = iomodel.Extent{Off: int64(startBit), Bits: int64(t.exact.Len() - startBit)}
		m.card = enc.Card()
	}
	t.perJ = make([]hashArray, len(hs))
	if len(hs) == 0 {
		return nil
	}
	t.hashed = getChainWriter()
	t.hashed.Grow(hneed)
	for j, h := range hs {
		arr := &t.perJ[j]
		arr.exts = make([]iomodel.Extent, len(t.members))
		cards := make([]int64, 2*len(t.members)) // the cards, then the priced lengths
		arr.cards, arr.priced = cards[:len(t.members):len(t.members)], cards[len(t.members):]
		arr.orders = make([]uint8, len(t.members))
		for mi, m := range t.members {
			if !hashedReachable(minz[mi], j+1) {
				continue
			}
			startBit := t.hashed.Len()
			enc.Init(t.hashed)
			k, err := sc.set.encode(&enc, h, sc.slab[m.start:m.end], uint(m.k))
			if err != nil {
				return fmt.Errorf("core: depth %d hashed level j=%d member [%d,%d): %w",
					t.depth, j+1, m.start, m.end, err)
			}
			bits := int64(t.hashed.Len() - startBit)
			if bits >= m.ext.Bits {
				t.hashed.Truncate(startBit)
				arr.priced[mi] = bits
				continue
			}
			arr.exts[mi] = iomodel.Extent{Off: int64(startBit), Bits: bits}
			arr.cards[mi] = enc.Card()
			arr.orders[mi] = uint8(k)
		}
	}
	return nil
}

// gapBits bounds, as a writer's size hint, the gap stream of card positions
// below univ: gamma lengths are concave, so card gaps of univ/card cost most.
func gapBits(card, univ int64) int {
	if card == 0 {
		return 0
	}
	return int(card) * (2*bits.Len64(uint64(univ/card)) + 1)
}

// rowID is a slab entry, a row position: 32 bits wide whenever the column
// has at most 2^32 rows.
type rowID interface{ uint32 | int64 }

// levelScratch is what one worker needs to run level tasks, one at a time.
type levelScratch[P rowID] struct {
	x      []uint32
	prefix []int64
	// slab holds one level: member m owns slab[m.start:m.end], its positions
	// in increasing order. Members of a level are disjoint record ranges, so
	// the record range doubles as the slab range.
	slab []P
	next []int64 // per character: the record its next occurrence becomes
	cur  []int32 // per character: first member not wholly below next
	fill []int64 // per member: the slab slot its next row drops into
	set  hashSet[P]
}

// newLevelScratch returns the scratch for levels over the column x, whose
// records prefix counts per character (prefix[a] records precede a's).
func newLevelScratch[P rowID](prefix []int64, x []uint32) *levelScratch[P] {
	sigma := len(prefix) - 1
	return &levelScratch[P]{
		x:      x,
		prefix: prefix,
		slab:   make([]P, prefix[sigma]),
		next:   make([]int64, sigma),
		cur:    make([]int32, sigma),
	}
}

// scatter fills the slab for one level in a single pass over the column:
// row i of character a is sorted-record next[a] (records are ordered by
// character, then position), and cur[a] walks the level's members — sorted,
// disjoint record ranges — forward to the one holding that record. A
// character's records may straddle several members, and records under a leaf
// materialised at a shallower level belong to no member here; both cases are
// the cursor advancing or the row being skipped. An empty member (a range of
// characters that never occur) is passed over like one wholly behind the
// row. Rows arrive in increasing i, so each member's slice ends up sorted.
func (sc *levelScratch[P]) scatter(members []member) error {
	copy(sc.next, sc.prefix)
	mi := 0
	for a := range sc.cur {
		for mi < len(members) && members[mi].end <= sc.prefix[a] {
			mi++
		}
		sc.cur[a] = int32(mi)
	}
	sc.fill = sc.fill[:0]
	for _, m := range members {
		sc.fill = append(sc.fill, m.start)
	}
	for i, a := range sc.x {
		r := sc.next[a]
		sc.next[a] = r + 1
		c := int(sc.cur[a])
		for c < len(members) && members[c].end <= r {
			c++
		}
		sc.cur[a] = int32(c)
		if c == len(members) || members[c].start > r {
			continue
		}
		sc.slab[sc.fill[c]] = P(i)
		sc.fill[c]++
	}
	for c, m := range members {
		if sc.fill[c] != m.end {
			return fmt.Errorf("%w: member [%d,%d) received %d of %d records",
				ErrBuildInvariant, m.start, m.end, sc.fill[c]-m.start, m.end-m.start)
		}
	}
	return nil
}

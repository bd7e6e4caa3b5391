// Package stash implements the Path ORAM stash: the small trusted memory
// that temporarily holds blocks between the path-read and write-back
// phases of an access, plus the greedy leaf-to-root write-back algorithm
// (step 5 of the protocol).
//
// The stash is deliberately deterministic: iteration follows insertion
// order (never Go map order), so identical access sequences produce
// identical evictions and the whole simulator is reproducible.
package stash

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"proram/internal/mem"
	"proram/internal/tree"
)

var errNilBlock = errors.New("stash: Add with nil block")

// Values of a table slot other than a position: a slot holds 0 when it was
// never used since the last rebuild, slotDeleted when its block was removed
// (probe chains run through it), and otherwise 1 + the block's position in
// order.
const slotDeleted int32 = -1

// maxTable caps the table so that every order position fits a slot:
// len(order) stays below 2*live+64 (maybeCompact) and live below half the
// table. initialTableMax caps what New allocates up front.
const (
	maxTable        = 1 << 30
	initialTableMax = 1 << 12
)

// Stash holds blocks that could not yet be written back to the tree. The
// zero value is unusable; construct with New.
type Stash struct {
	order []tree.Labeled // insertion-ordered; a removed entry keeps its place with id Nil
	live  int            // blocks currently stashed
	// order[seg:segEnd] is the open path segment: the blocks the last
	// AddPath read off a path, in order but not in the table. Lookups scan
	// it before they probe; EvictToPath, a compaction or the next AddPath
	// closes it. seg == segEnd when none is open.
	seg, segEnd int
	// table is the id -> order position index: open addressing with linear
	// probing over a power-of-two number of slots. used counts the slots
	// that are not empty (live and deleted) plus one reserved for every live
	// block of the open segment; it stays at or below half the table, so
	// every probe ends at an empty slot and closing the segment never has
	// to grow the table.
	table []int32
	used  int
	shift uint // 64 - log2(len(table)): the hash keeps the product's top bits

	limit      int    // configured capacity (soft: triggers background eviction)
	highWater  int    // max observed size
	writebacks uint64 // blocks written back to the tree
	// Reusable buffers of eviction's counting sort: the per-height run
	// bounds, each order position's height, and the live blocks sorted by
	// height beside their positions in order.
	ends    []int
	heights []uint8
	sorted  []tree.Labeled
	pos     []int32
}

// New returns an empty stash with the given soft capacity limit. It
// rejects non-positive limits.
func New(limit int) (*Stash, error) {
	if limit < 1 {
		return nil, fmt.Errorf("stash: limit %d must be positive", limit)
	}
	// Four slots per block of the limit: a stash at its limit plus one
	// path's worth of removals still sits below the half-full mark. The
	// limit is caller-chosen and may be huge ("never evict"), so it sizes
	// the table only up to initialTableMax; reserve grows it from there.
	size := 16
	for size < initialTableMax && size/4 < limit {
		size *= 2
	}
	s := &Stash{limit: limit}
	s.setTable(make([]int32, size))
	return s, nil
}

func (s *Stash) setTable(table []int32) {
	s.table = table
	s.shift = uint(64 - bits.TrailingZeros(uint(len(table))))
}

// Limit returns the configured soft capacity.
func (s *Stash) Limit() int { return s.limit }

// Size returns the number of blocks currently stashed.
func (s *Stash) Size() int { return s.live }

// HighWater returns the maximum size ever observed.
func (s *Stash) HighWater() int { return s.highWater }

// Writebacks returns the number of blocks EvictToPath has written back.
func (s *Stash) Writebacks() uint64 { return s.writebacks }

// OverLimit reports whether the stash currently exceeds its soft capacity,
// i.e. whether the controller must issue background evictions.
func (s *Stash) OverLimit() bool { return s.live > s.limit }

// home returns the slot at which the probe sequence of id starts: the top
// bits of a Fibonacci hash, which spreads block ids (small consecutive
// integers under a level tag) over the table.
func (s *Stash) home(id mem.BlockID) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15) >> s.shift)
}

// probe walks the probe sequence of id. If id is in the table it returns
// its table slot and its order entry. Otherwise the entry is nil and the
// slot is where an insert of id belongs: the first deleted slot on the
// sequence, or else the empty slot that ends it. Both pointers are good
// until the next Add, AddPath or compaction.
func (s *Stash) probe(id mem.BlockID) (slot *int32, e *tree.Labeled) {
	table, order := s.table, s.order
	mask := len(table) - 1
	var free *int32
	for i := s.home(id); ; i = (i + 1) & mask {
		p := &table[i]
		v := *p
		if v <= 0 { // empty or deleted: an insert may take it
			if free == nil {
				free = p
			}
			if v == 0 {
				return free, nil
			}
			continue
		}
		// A positive slot is 1 + an order position; the inserts and compact
		// write the two together.
		if c := &order[v-1]; c.ID == id {
			return p, c
		}
	}
}

// inSegment returns the order position of id in the open segment, or -1.
func (s *Stash) inSegment(id mem.BlockID) int {
	for i, e := range s.order[s.seg:s.segEnd] {
		if e.ID == id {
			return s.seg + i
		}
	}
	return -1
}

// reserve makes room in the table for n more used slots. A table that
// would pass half use is rebuilt first.
func (s *Stash) reserve(n int) error {
	if s.used+n <= len(s.table)/2 {
		return nil
	}
	return s.rebuild(n)
}

// Add inserts a block mapped to leaf. It errors on a nil id and on a
// block that is already stashed; both indicate a protocol bug in the
// caller, which decides whether that is fatal.
func (s *Stash) Add(id mem.BlockID, leaf mem.Leaf) error {
	if id.IsNil() {
		return errNilBlock
	}
	if err := s.reserve(1); err != nil {
		return err
	}
	slot, dup := s.probe(id)
	if dup != nil || s.inSegment(id) >= 0 {
		return fmt.Errorf("stash: duplicate add of %v", id)
	}
	if *slot == 0 {
		s.used++
	}
	s.order = append(s.order, tree.Labeled{ID: id, Leaf: leaf}) // maybeCompact bounds order, so the steady state reuses its capacity
	*slot = int32(len(s.order))
	s.live++
	s.highWater = max(s.highWater, s.live)
	return nil
}

// AddPath stashes the blocks a path read returned, each under the label
// its tree slot held. They join order exactly where one Add per block
// would have put them, but not the table: the write-back of the same
// access takes most of them straight back out, so they become the open
// segment and EvictToPath indexes only the ones it leaves behind. A
// segment still open from an earlier path is closed first. The blocks must
// be real, distinct and not stashed yet, as a tree path's blocks are.
func (s *Stash) AddPath(path []tree.Labeled) error {
	s.closeSegment()
	if err := s.reserve(len(path)); err != nil {
		return err
	}
	s.seg = len(s.order)
	s.order = append(s.order, path...) // maybeCompact bounds order, so the steady state reuses its capacity
	s.segEnd = len(s.order)
	s.used += len(path)
	s.live += len(path)
	s.highWater = max(s.highWater, s.live)
	return nil
}

// closeSegment closes the open segment: it squeezes the removed entries
// out of order from the segment on, in place and without reordering, and
// gives each live block of the segment its table slot at its new position
// (one that lands on a deleted slot returns its reservation). The few
// blocks added after the segment are re-pointed as they move. A write-back
// thus leaves no removed entries behind for compact to clear.
func (s *Stash) closeSegment() {
	if s.seg == s.segEnd {
		return
	}
	n, end := s.seg, s.segEnd
	for i, e := range s.order[s.seg:] {
		if e.ID.IsNil() {
			continue
		}
		// Every slot points below n or at an entry not yet moved, so the
		// probes see a consistent index.
		switch p := s.seg + i; {
		case p < end: // a segment block takes the slot it reserved
			slot, _ := s.probe(e.ID)
			if *slot != 0 {
				s.used--
			}
			*slot = int32(n + 1)
		case p != n: // a block added after the segment moves
			slot, _ := s.probe(e.ID)
			*slot = int32(n + 1)
		}
		s.order[n] = e
		n++
	}
	s.order = s.order[:n]
	s.seg, s.segEnd = 0, 0
}

// find returns id's order entry, from the open segment or the table, or
// nil if id is not stashed.
func (s *Stash) find(id mem.BlockID) *tree.Labeled {
	if i := s.inSegment(id); i >= 0 {
		return &s.order[i]
	}
	_, e := s.probe(id)
	return e
}

// Contains reports whether id is stashed.
func (s *Stash) Contains(id mem.BlockID) bool { return s.find(id) != nil }

// SetLeaf remaps a stashed block to a new leaf. It reports whether the
// block was present.
func (s *Stash) SetLeaf(id mem.BlockID, leaf mem.Leaf) bool {
	e := s.find(id)
	if e == nil {
		return false
	}
	e.Leaf = leaf
	return true
}

// drop deletes the live entry e: its table slot is marked deleted, or, for
// a block of the open segment (slot nil), its reservation is returned. The
// entry keeps its place in order with a Nil id.
func (s *Stash) drop(e *tree.Labeled, slot *int32) {
	if slot == nil {
		s.used--
	} else {
		*slot = slotDeleted
	}
	e.ID = mem.Nil
	s.live--
}

// Remove deletes a block from the stash, reporting whether it was present.
func (s *Stash) Remove(id mem.BlockID) bool {
	if i := s.inSegment(id); i >= 0 {
		s.drop(&s.order[i], nil)
	} else if slot, e := s.probe(id); e != nil {
		s.drop(e, slot)
	} else {
		return false
	}
	s.maybeCompact()
	return true
}

// maybeCompact rebuilds the order slice when tombstones dominate, so the
// slice stays O(live entries) without changing iteration order.
func (s *Stash) maybeCompact() {
	if len(s.order) < 64 || len(s.order) < 2*s.live {
		return
	}
	s.compact()
}

// compact squeezes the removed entries out of order, in place and without
// reordering, and refills the table with the new positions: every deleted
// slot becomes empty again, and the open segment is indexed and closed.
func (s *Stash) compact() {
	clear(s.table)
	n := 0
	for _, e := range s.order {
		if e.ID.IsNil() {
			continue
		}
		// The table holds only positions below n, which are final, so
		// probing it while order is half rewritten is sound.
		slot, _ := s.probe(e.ID)
		s.order[n] = e
		n++
		*slot = int32(n)
	}
	s.order = s.order[:n]
	s.used = n
	s.seg, s.segEnd = 0, 0
}

// rebuild makes room for n more blocks in a table about to pass half use:
// it doubles the table until the live blocks and the n new ones fill at
// most a quarter of it, then compacts, which also turns every deleted slot
// back into an empty one. The stash limit is soft, so occupancy — and with
// it the table — has no fixed bound; the table never shrinks.
func (s *Stash) rebuild(n int) error {
	size := len(s.table)
	for 4*(s.live+n) > size {
		size *= 2
	}
	if size > maxTable {
		return fmt.Errorf("stash: %d blocks exceed the table maximum", s.live+n)
	}
	if size != len(s.table) {
		s.setTable(make([]int32, size))
	}
	s.compact()
	return nil
}

// ForEach visits every stashed block in insertion order.
func (s *Stash) ForEach(visit func(id mem.BlockID, leaf mem.Leaf)) {
	for _, e := range s.order {
		if !e.ID.IsNil() {
			visit(e.ID, e.Leaf)
		}
	}
}

// EvictToPath greedily writes stashed blocks back onto the path to
// accessLeaf, filling buckets from the leaf up (deepest legal bucket
// first), exactly as in Path ORAM's write-back phase. A block mapped to
// leaf b may go into the bucket at depth d on the access path iff the two
// paths share that bucket, i.e. d <= CommonDepth(accessLeaf, b). The
// blocks of the open segment that stay behind are then indexed.
//
// It returns the number of blocks written back.
func (s *Stash) EvictToPath(t *tree.Tree, accessLeaf mem.Leaf) int {
	levels := t.Levels()
	// Counting sort of the live blocks by the deepest bucket they may
	// occupy on this path, as its height above the leaf bucket, so that the
	// walk below runs up the sorted slice. First each block's height and
	// the count per height.
	if cap(s.ends) < levels+1 {
		s.ends = make([]int, levels+1)
	}
	ends := s.ends[:levels+1]
	clear(ends)
	s.heights = slices.Grow(s.heights[:0], len(s.order)) // grows only past the previous peak length
	heights := s.heights[:len(s.order)]
	for i, e := range s.order {
		if e.ID.IsNil() {
			continue
		}
		h := levels - t.CommonDepth(accessLeaf, e.Leaf)
		if h < 0 || h >= len(ends) {
			//proram:invariant stashed leaves come from the position map and the tree's labels, which lie in [0, Leaves); a divergence above the root means a corrupt label
			panic("stash: stashed block mapped outside the tree")
		}
		heights[i] = uint8(h)
		ends[h]++
	}
	// Prefix sums turn each count into the start of its height's run, and
	// the stable scatter advances each start to the run's end.
	start := 0
	for h, n := range ends {
		ends[h] = start
		start += n
	}
	s.sorted = slices.Grow(s.sorted[:0], s.live) // grows only past the previous peak occupancy
	s.pos = slices.Grow(s.pos[:0], s.live)
	sorted, pos := s.sorted[:s.live], s.pos[:s.live]
	for i, e := range s.order {
		if e.ID.IsNil() {
			continue
		}
		h := heights[i]
		sorted[ends[h]] = e
		pos[ends[h]] = int32(i)
		ends[h]++
	}

	// Walk the path leaf to root. sorted[head:end] is the FIFO of blocks
	// that may go into the current bucket: what deeper buckets had no room
	// for, then this height's own run. A placed block of the open segment
	// is retired where it stands; any other is found in the table first.
	head := 0
	for h, end := range ends {
		if head == end {
			continue // nothing may go here: the bucket is not touched
		}
		n := t.FillAt(accessLeaf, levels-h, sorted[head:end])
		for _, p := range pos[head : head+n] {
			e := &s.order[p]
			if int(p) >= s.seg && int(p) < s.segEnd {
				s.drop(e, nil)
				continue
			}
			slot, found := s.probe(e.ID)
			if found != e {
				//proram:invariant a live entry outside the open segment sits in the table at its own position; anything else is a corrupt index
				panic("stash: block to write back is not in the index")
			}
			s.drop(e, slot)
		}
		head += n
	}
	s.closeSegment()
	s.maybeCompact()
	s.writebacks += uint64(head)
	return head
}

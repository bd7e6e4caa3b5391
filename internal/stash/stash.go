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

// entry is one stashed block with the leaf it is currently mapped to.
type entry struct {
	id   mem.BlockID
	leaf mem.Leaf
}

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
	order []entry // insertion-ordered; a removed entry keeps its place with id Nil
	live  int     // blocks currently stashed
	// table is the id -> order position index: open addressing with linear
	// probing over a power-of-two number of slots. used counts the slots
	// that are not empty (live and deleted); it stays at or below half the
	// table, so every probe ends at an empty slot.
	table []int32
	used  int
	shift uint // 64 - log2(len(table)): the hash keeps the product's top bits

	limit      int           // configured capacity (soft: triggers background eviction)
	highWater  int           // max observed size
	writebacks uint64        // blocks written back to the tree
	ends       []int         // reusable per-height run bounds of eviction's counting sort
	sorted     []mem.BlockID // reusable buffer the live blocks are sorted into
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
	// the table only up to initialTableMax; Add grows it from there.
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

// probe walks the probe sequence of id. If id is stashed it returns its
// table slot and its order entry. Otherwise the entry is nil and the slot
// is where an insert of id belongs: the first deleted slot on the sequence,
// or else the empty slot that ends it. Both pointers are good until the
// next Add or compaction.
//
//proram:hotpath one probe sequence per insert, membership test, remap and removal
func (s *Stash) probe(id mem.BlockID) (slot *int32, e *entry) {
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
		// A positive slot is 1 + an order position; Add and compact write the
		// two together.
		if c := &order[v-1]; c.id == id {
			return p, c
		}
	}
}

// Add inserts a block mapped to leaf. It errors on a nil id and on a
// block that is already stashed; both indicate a protocol bug in the
// caller, which decides whether that is fatal.
//
//proram:hotpath one insert per block on every path read
func (s *Stash) Add(id mem.BlockID, leaf mem.Leaf) error {
	if id.IsNil() {
		return errNilBlock
	}
	if s.used >= len(s.table)/2 {
		//proram:allow allocdiscipline the table grows only when occupancy passes a quarter of it for the first time and never shrinks; otherwise the rebuild works in place
		if err := s.rebuild(); err != nil {
			return err
		}
	}
	slot, dup := s.probe(id)
	if dup != nil {
		return fmt.Errorf("stash: duplicate add of %v", id) //proram:allow allocdiscipline failure path for a caller protocol bug; never taken in a correct run
	}
	if *slot == 0 {
		s.used++
	}
	s.order = append(s.order, entry{id: id, leaf: leaf}) //proram:allow allocdiscipline bounded by the occupancy invariant and reclaimed by maybeCompact; steady state reuses capacity
	*slot = int32(len(s.order))
	s.live++
	if s.live > s.highWater {
		s.highWater = s.live
	}
	return nil
}

// Contains reports whether id is stashed.
//
//proram:hotpath membership probe for every gathered block
func (s *Stash) Contains(id mem.BlockID) bool {
	_, e := s.probe(id)
	return e != nil
}

// SetLeaf remaps a stashed block to a new leaf. It reports whether the
// block was present.
//
//proram:hotpath remap of every super-block member
func (s *Stash) SetLeaf(id mem.BlockID, leaf mem.Leaf) bool {
	_, e := s.probe(id)
	if e == nil {
		return false
	}
	e.leaf = leaf
	return true
}

// remove deletes id, reporting whether it was present: its table slot is
// marked deleted and its order entry keeps its place with a Nil id.
//
//proram:hotpath one removal per block written back
func (s *Stash) remove(id mem.BlockID) bool {
	slot, e := s.probe(id)
	if e == nil {
		return false
	}
	e.id = mem.Nil
	*slot = slotDeleted
	s.live--
	return true
}

// Remove deletes a block from the stash, reporting whether it was present.
//
//proram:hotpath runs during write-back
func (s *Stash) Remove(id mem.BlockID) bool {
	if !s.remove(id) {
		return false
	}
	s.maybeCompact()
	return true
}

// maybeCompact rebuilds the order slice when tombstones dominate, so the
// slice stays O(live entries) without changing iteration order.
//
//proram:hotpath amortized compaction inside removals and evictions
func (s *Stash) maybeCompact() {
	if len(s.order) < 64 || len(s.order) < 2*s.live {
		return
	}
	s.compact()
}

// compact squeezes the removed entries out of order, in place and without
// reordering, and refills the table with the new positions; every deleted
// slot becomes empty again.
//
//proram:hotpath amortized over the removals that made it necessary
func (s *Stash) compact() {
	clear(s.table)
	live := s.order[:0]
	for _, e := range s.order {
		if e.id.IsNil() {
			continue
		}
		// The table holds only positions below len(live), which are final,
		// so probing it while order is half rewritten is sound.
		slot, _ := s.probe(e.id)
		live = append(live, e) //proram:allow allocdiscipline compacts in place: live aliases s.order[:0], so no new backing array is ever grown
		*slot = int32(len(live))
	}
	s.order = live
	s.used = len(live)
}

// rebuild makes room in a table that is half used: it doubles the table
// until the live blocks (and the one about to be added) fill at most a
// quarter of it, then compacts, which also turns every deleted slot back
// into an empty one. The stash limit is soft, so occupancy — and with it
// the table — has no fixed bound; the table never shrinks.
func (s *Stash) rebuild() error {
	size := len(s.table)
	for 4*(s.live+1) > size {
		size *= 2
	}
	if size > maxTable {
		return fmt.Errorf("stash: %d blocks exceed the table maximum", s.live)
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
		if !e.id.IsNil() {
			visit(e.id, e.leaf)
		}
	}
}

// EvictToPath greedily writes stashed blocks back onto the path to
// accessLeaf, filling buckets from the leaf up (deepest legal bucket
// first), exactly as in Path ORAM's write-back phase. A block mapped to
// leaf b may go into the bucket at depth d on the access path iff the two
// paths share that bucket, i.e. d <= CommonDepth(accessLeaf, b).
//
// It returns the number of blocks written back.
//
//proram:hotpath the write-back phase of every path access
func (s *Stash) EvictToPath(t *tree.Tree, accessLeaf mem.Leaf) int {
	levels := t.Levels()
	// Counting sort of the live blocks by the deepest bucket they may
	// occupy on this path, as its height above the leaf bucket, so that the
	// walk below runs up the sorted slice. First the count per height.
	if cap(s.ends) < levels+1 {
		s.ends = make([]int, levels+1) //proram:allow allocdiscipline one-time warm-up behind the capacity guard
	}
	ends := s.ends[:levels+1]
	clear(ends)
	for _, e := range s.order {
		if e.id.IsNil() {
			continue
		}
		h := levels - t.CommonDepth(accessLeaf, e.leaf)
		if h < 0 || h >= len(ends) {
			//proram:invariant stashed leaves come from the position map, whose labels lie in [0, Leaves); a divergence above the root means a corrupt label
			panic("stash: stashed block mapped outside the tree")
		}
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
	sorted := s.sorted[:s.live]
	for _, e := range s.order {
		if e.id.IsNil() {
			continue
		}
		h := levels - t.CommonDepth(accessLeaf, e.leaf)
		sorted[ends[h]] = e.id
		ends[h]++
	}

	// Walk the path leaf to root. sorted[head:end] is the FIFO of blocks
	// that may go into the current bucket: what deeper buckets had no room
	// for, then this height's own run.
	head := 0
	for h, end := range ends {
		n := t.FillAt(accessLeaf, levels-h, sorted[head:end])
		for _, id := range sorted[head : head+n] {
			if !s.remove(id) {
				//proram:invariant the id was read from order a moment ago and nothing removes blocks in between
				panic("stash: block to write back is not in the index")
			}
		}
		head += n
	}
	s.maybeCompact()
	s.writebacks += uint64(head)
	return head
}

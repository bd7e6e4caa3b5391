package posmap

import (
	"math/bits"

	"proram/internal/mem"
)

// PLB is the Position-map Lookaside Buffer of Unified ORAM: a small LRU
// cache of position-map blocks held inside the secure processor. A PLB hit
// at level i means the recursion walk can start below level i, saving one
// ORAM path access per level skipped.
//
// Blocks in the PLB are the authoritative copies — the PLB is exclusive,
// as in Freecursive ORAM: a fill removes the block from the tree and the
// stash, and an eviction hands the victim back to the controller, which
// appends it to the stash under the leaf its parent entry records. Neither
// costs a path access, and since every copy is the only one there is no
// dirty bit to keep.
//
// Every array is sized in NewPLB and never grows: a slab of ids with
// int32 LRU links, and an open-addressed index into the slab with linear
// probing and backward-shift deletion, at least twice the capacity so a
// probe stays short.
type PLB struct {
	ids        []mem.BlockID // cached blocks by slab position; cap is the capacity
	prev, next []int32       // LRU links by slab position; none ends a list
	head, tail int32         // most and least recently used

	table []int32 // slab position per index slot, or none
	shift uint    // 64 - log2(len(table)): a hash's top bits pick its slot

	hits   uint64
	misses uint64
}

const none int32 = -1

// NewPLB returns an empty PLB holding up to capacity position-map blocks.
// A capacity of 0 disables the PLB (every lookup misses).
func NewPLB(capacity int) *PLB {
	p := &PLB{
		ids:  make([]mem.BlockID, 0, capacity),
		prev: make([]int32, capacity),
		next: make([]int32, capacity),
		head: none,
		tail: none,
	}
	if capacity == 0 {
		return p
	}
	logSize := bits.Len(uint(2*capacity - 1))
	p.table = make([]int32, 1<<logSize)
	for i := range p.table {
		p.table[i] = none
	}
	p.shift = 64 - uint(logSize)
	return p
}

// Len returns the number of cached blocks.
func (p *PLB) Len() int { return len(p.ids) }

// home is id's first index slot (Fibonacci hashing).
func (p *PLB) home(id mem.BlockID) int {
	return int(uint64(id) * 0x9e3779b97f4a7c15 >> p.shift)
}

// slot returns the index slot that holds id, or the empty slot that ends
// its probe sequence.
func (p *PLB) slot(id mem.BlockID) int {
	mask := len(p.table) - 1
	i := p.home(id)
	for p.table[i] != none && p.ids[p.table[i]] != id {
		i = (i + 1) & mask
	}
	return i
}

// find returns id's slab position, or none.
func (p *PLB) find(id mem.BlockID) int32 {
	if len(p.ids) == 0 {
		return none
	}
	return p.table[p.slot(id)]
}

// Lookup reports whether id is cached, promoting it on hit and recording
// hit/miss statistics.
func (p *PLB) Lookup(id mem.BlockID) bool {
	if n := p.find(id); n != none {
		p.toFront(n)
		p.hits++
		return true
	}
	p.misses++
	return false
}

// Contains reports presence without promoting or counting.
func (p *PLB) Contains(id mem.BlockID) bool { return p.find(id) != none }

// Insert caches id (most recently used). If the PLB overflows, the least
// recently used block is evicted and returned; the caller must put the
// victim back into the stash. ok reports whether a victim was produced.
func (p *PLB) Insert(id mem.BlockID) (victim mem.BlockID, ok bool) {
	if cap(p.ids) == 0 {
		// PLB disabled: nothing is cached and there is no victim — the
		// accessed block simply stays in the stash/tree like any other.
		return mem.Nil, false
	}
	if n := p.find(id); n != none {
		p.toFront(n)
		return mem.Nil, false
	}
	victim = mem.Nil
	n := int32(len(p.ids))
	if len(p.ids) < cap(p.ids) {
		p.ids = append(p.ids, id)
	} else {
		// At capacity: the least recently used entry's slab position
		// takes the new block.
		n = p.tail
		victim, ok = p.ids[n], true
		p.unindex(p.slot(victim))
		p.unlink(n)
		p.ids[n] = id
	}
	p.table[p.slot(id)] = n
	p.pushFront(n)
	return victim, ok
}

// unindex empties index slot i and moves back every later entry of its
// probe run that may not stay behind the hole (backward-shift deletion),
// so no tombstone ever lengthens a probe.
func (p *PLB) unindex(i int) {
	mask := len(p.table) - 1
	for j := (i + 1) & mask; p.table[j] != none; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-p.home(p.ids[p.table[j]]))&mask >= (j-i)&mask {
			p.table[i] = p.table[j]
			i = j
		}
	}
	p.table[i] = none
}

func (p *PLB) toFront(n int32) {
	if n != p.head {
		p.unlink(n)
		p.pushFront(n)
	}
}

func (p *PLB) unlink(n int32) {
	if p.prev[n] != none {
		p.next[p.prev[n]] = p.next[n]
	} else {
		p.head = p.next[n]
	}
	if p.next[n] != none {
		p.prev[p.next[n]] = p.prev[n]
	} else {
		p.tail = p.prev[n]
	}
}

func (p *PLB) pushFront(n int32) {
	p.prev[n], p.next[n] = none, p.head
	if p.head != none {
		p.prev[p.head] = n
	} else {
		p.tail = n
	}
	p.head = n
}

// Hits and Misses expose the lookup statistics.
func (p *PLB) Hits() uint64   { return p.hits }
func (p *PLB) Misses() uint64 { return p.misses }

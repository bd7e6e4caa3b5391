package posmap

import (
	"container/list"

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
type PLB struct {
	capacity int
	lru      *list.List // front = most recent; values are *plbEntry
	index    map[mem.BlockID]*list.Element

	hits   uint64
	misses uint64
}

// plbEntry is held by pointer so that Insert can recycle the LRU element in
// place; storing the id itself would box a new value per insert.
type plbEntry struct{ id mem.BlockID }

// NewPLB returns an empty PLB holding up to capacity position-map blocks.
// A capacity of 0 disables the PLB (every lookup misses).
func NewPLB(capacity int) *PLB {
	return &PLB{
		capacity: capacity,
		lru:      list.New(),
		index:    make(map[mem.BlockID]*list.Element),
	}
}

// Len returns the number of cached blocks.
func (p *PLB) Len() int { return p.lru.Len() }

// Lookup reports whether id is cached, promoting it on hit and recording
// hit/miss statistics.
func (p *PLB) Lookup(id mem.BlockID) bool {
	if e, ok := p.index[id]; ok {
		p.lru.MoveToFront(e)
		p.hits++
		return true
	}
	p.misses++
	return false
}

// Contains reports presence without promoting or counting.
func (p *PLB) Contains(id mem.BlockID) bool {
	_, ok := p.index[id]
	return ok
}

// Insert caches id (most recently used). If the PLB overflows, the least
// recently used block is evicted and returned; the caller must put the
// victim back into the stash. ok reports whether a victim was produced.
func (p *PLB) Insert(id mem.BlockID) (victim mem.BlockID, ok bool) {
	if p.capacity == 0 {
		// PLB disabled: nothing is cached and there is no victim — the
		// accessed block simply stays in the stash/tree like any other.
		return mem.Nil, false
	}
	if e, found := p.index[id]; found {
		p.lru.MoveToFront(e)
		return mem.Nil, false
	}
	if p.lru.Len() < p.capacity {
		p.lru.PushFront(&plbEntry{id: id})
		p.index[id] = p.lru.Front()
		return mem.Nil, false
	}
	// At capacity: recycle the least recently used entry in place
	// rather than allocating a new node and unlinking the victim's.
	back := p.lru.Back()
	ent := back.Value.(*plbEntry)
	delete(p.index, ent.id)
	victim, ent.id = ent.id, id
	p.lru.MoveToFront(back)
	p.index[id] = back
	return victim, true
}

// Hits and Misses expose the lookup statistics.
func (p *PLB) Hits() uint64   { return p.hits }
func (p *PLB) Misses() uint64 { return p.misses }

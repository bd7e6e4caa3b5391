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
// Blocks in the PLB are the authoritative copies (they were removed from
// the tree when loaded); evicting a dirty block therefore requires an ORAM
// write-back access, which the controller performs.
type PLB struct {
	capacity int
	lru      *list.List // front = most recent; values are plbEntry
	index    map[mem.BlockID]*list.Element

	hits           uint64
	misses         uint64
	dirtyEvictions uint64
}

type plbEntry struct {
	id    mem.BlockID
	dirty bool
}

// NewPLB returns an empty PLB holding up to capacity position-map blocks.
// A capacity of 0 disables the PLB (every lookup misses).
func NewPLB(capacity int) *PLB {
	return &PLB{
		capacity: capacity,
		lru:      list.New(),
		index:    make(map[mem.BlockID]*list.Element),
	}
}

// Capacity returns the configured size in blocks.
func (p *PLB) Capacity() int { return p.capacity }

// Len returns the number of cached blocks.
func (p *PLB) Len() int { return p.lru.Len() }

// Lookup reports whether id is cached, promoting it on hit and recording
// hit/miss statistics.
//
//proram:hotpath probed once per recursion level on every access
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

// MarkDirty flags a cached block as modified. It reports whether the block
// was present.
//
//proram:hotpath runs on every remap
func (p *PLB) MarkDirty(id mem.BlockID) bool {
	e, ok := p.index[id]
	if !ok {
		return false
	}
	e.Value.(*plbEntry).dirty = true
	return true
}

// Insert caches id (most recently used, clean). If the PLB overflows, the
// least recently used block is evicted and returned with its dirty flag;
// the caller must write dirty victims back to the ORAM. ok reports whether
// a victim was produced.
//
//proram:hotpath runs once per recursion level walked
func (p *PLB) Insert(id mem.BlockID) (victim mem.BlockID, dirty, ok bool) {
	if p.capacity == 0 {
		// PLB disabled: nothing is cached and there is no victim — the
		// accessed block simply stays in the stash/tree like any other.
		return mem.Nil, false, false
	}
	if e, found := p.index[id]; found {
		p.lru.MoveToFront(e)
		return mem.Nil, false, false
	}
	if p.lru.Len() < p.capacity {
		p.lru.PushFront(&plbEntry{id: id}) //proram:allow allocdiscipline warm-up below capacity only; at capacity the LRU entry is recycled in place
		p.index[id] = p.lru.Front()
		return mem.Nil, false, false
	}
	// At capacity: recycle the least recently used entry in place
	// rather than allocating a new node and unlinking the victim's.
	back := p.lru.Back()
	ent := back.Value.(*plbEntry)
	delete(p.index, ent.id)
	victim, dirty = ent.id, ent.dirty
	ent.id, ent.dirty = id, false
	p.lru.MoveToFront(back)
	p.index[id] = back
	if dirty {
		p.dirtyEvictions++
	}
	return victim, dirty, true
}

// Hits and Misses expose the lookup statistics; DirtyEvictions counts the
// victims Insert handed back for write-back.
func (p *PLB) Hits() uint64           { return p.hits }
func (p *PLB) Misses() uint64         { return p.misses }
func (p *PLB) DirtyEvictions() uint64 { return p.dirtyEvictions }

// HitRate returns hits/(hits+misses), or 0 when no lookups happened.
func (p *PLB) HitRate() float64 {
	total := p.hits + p.misses
	if total == 0 {
		return 0
	}
	return float64(p.hits) / float64(total)
}

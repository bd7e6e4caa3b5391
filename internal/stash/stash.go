// Package stash implements the Path ORAM stash: the small trusted memory
// that temporarily holds blocks between the path-read and write-back
// phases of an access. Its write-back (step 5 of the protocol, greedy
// from the leaf bucket up) is one call to tree.EvictPath, which takes the
// stashed blocks as they stand.
//
// The stash is deliberately deterministic: iteration follows insertion
// order (never Go map order), so identical access sequences produce
// identical evictions and the whole simulator is reproducible.
//
// A Path ORAM stash is small by design, so it keeps no index: a lookup
// scans the stashed blocks, and the write-back, which visits every one of
// them in two passes anyway, writes the placed ones straight into their
// tree slots and moves the rest forward in place in its second pass.
package stash

import (
	"fmt"
	"slices"

	"proram/internal/mem"
	"proram/internal/tree"
)

// Stash holds blocks that could not yet be written back to the tree. The
// zero value is unusable; construct with New.
type Stash struct {
	// order holds the stashed blocks in insertion order, each in its tree
	// slot encoding.
	order []tree.Slot

	limit      int    // configured capacity (soft: triggers background eviction)
	highWater  int    // max observed size
	writebacks uint64 // blocks written back to the tree
}

// New returns an empty stash with the given soft capacity limit. It
// rejects non-positive limits.
func New(limit int) (*Stash, error) {
	if limit < 1 {
		return nil, fmt.Errorf("stash: limit %d must be positive", limit)
	}
	return &Stash{limit: limit}, nil
}

// Limit returns the configured soft capacity.
func (s *Stash) Limit() int { return s.limit }

// Size returns the number of blocks currently stashed.
func (s *Stash) Size() int { return len(s.order) }

// HighWater returns the maximum size ever observed.
func (s *Stash) HighWater() int { return s.highWater }

// Writebacks returns the number of blocks EvictToPath has written back.
func (s *Stash) Writebacks() uint64 { return s.writebacks }

// OverLimit reports whether the stash currently exceeds its soft capacity,
// i.e. whether the controller must issue background evictions.
func (s *Stash) OverLimit() bool { return len(s.order) > s.limit }

// find returns the position of id in order, or -1 if id is not stashed
// (an id no slot can hold never is). It scans from the newest entry back:
// codes are unique, so the direction does not change the answer, and the
// blocks the controller looks up were mostly just read off the path, so
// they sit at the tail.
func (s *Stash) find(id mem.BlockID) int {
	packed, ok := tree.Pack(id, 0)
	if !ok {
		return -1
	}
	code := packed.Code()
	for i := len(s.order) - 1; i >= 0; i-- {
		if s.order[i].Code() == code {
			return i
		}
	}
	return -1
}

// Add inserts a block mapped to leaf. It errors on a block or label no
// tree slot can hold (a nil id, mem.NoLeaf) and on a block that is already
// stashed; each indicates a protocol bug in the caller, which decides
// whether that is fatal.
func (s *Stash) Add(id mem.BlockID, leaf mem.Leaf) error {
	e, ok := tree.Pack(id, leaf)
	if !ok {
		return fmt.Errorf("stash: block %v at leaf %d does not fit a tree slot", id, leaf)
	}
	if s.find(id) >= 0 {
		return fmt.Errorf("stash: duplicate add of %v", id)
	}
	s.order = append(s.order, e) // the write-back compacts in place, so the steady state reuses its capacity
	s.highWater = max(s.highWater, len(s.order))
	return nil
}

// ReadPath is the read phase of a path access: it takes every block off
// the path to leaf, root bucket first, and stashes it under the label its
// tree slot held, exactly where one Add per block would have put it. The
// path's blocks must not be stashed already, as a Path ORAM tree's never
// are.
func (s *Stash) ReadPath(t *tree.Tree, leaf mem.Leaf) {
	s.order = t.RemovePathSlots(leaf, s.order)
	s.highWater = max(s.highWater, len(s.order))
}

// Contains reports whether id is stashed.
func (s *Stash) Contains(id mem.BlockID) bool { return s.find(id) >= 0 }

// SetLeaf remaps a stashed block to a new leaf. It reports whether the
// block was present.
func (s *Stash) SetLeaf(id mem.BlockID, leaf mem.Leaf) bool {
	i := s.find(id)
	if i < 0 {
		return false
	}
	s.order[i] = s.order[i].Relabel(leaf)
	return true
}

// Remove deletes a block from the stash, reporting whether it was present.
// The blocks behind it keep their order.
func (s *Stash) Remove(id mem.BlockID) bool {
	i := s.find(id)
	if i < 0 {
		return false
	}
	s.order = slices.Delete(s.order, i, i+1)
	return true
}

// ForEach visits every stashed block in insertion order.
func (s *Stash) ForEach(visit func(id mem.BlockID, leaf mem.Leaf)) {
	for _, e := range s.order {
		visit(e.Block(), e.Leaf())
	}
}

// EvictToPath greedily writes stashed blocks back onto the path to
// accessLeaf, filling buckets from the leaf up (deepest legal bucket
// first), exactly as in Path ORAM's write-back phase. A block mapped to
// leaf b may go into the bucket at depth d on the access path iff the two
// paths share that bucket, i.e. d <= CommonDepth(accessLeaf, b). Blocks
// of one height go in stash order, and the blocks left behind keep it.
//
// It returns the number of blocks written back.
func (s *Stash) EvictToPath(t *tree.Tree, accessLeaf mem.Leaf) int {
	var placed int
	s.order, placed = t.EvictPath(accessLeaf, s.order)
	s.writebacks += uint64(placed)
	return placed
}

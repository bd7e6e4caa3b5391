// Package mem defines the small shared vocabulary of the memory-system
// simulator: block identifiers, leaf labels, and the encoding of
// position-map hierarchy levels into block IDs.
//
// The Unified ORAM design stores data blocks and position-map blocks in the
// same binary tree, so a block identifier carries both its hierarchy level
// (0 = data, 1..n = position-map levels) and its index within that level.
package mem

import "fmt"

// BlockID identifies one ORAM block (data or position-map). The top byte
// holds the hierarchy level; the low 56 bits hold the index within the
// level.
type BlockID uint64

// Nil is the sentinel for "no block" (an empty tree slot, a dummy).
const Nil BlockID = ^BlockID(0)

const levelShift = 56
const indexMask = (BlockID(1) << levelShift) - 1

// MakeID composes a BlockID from a hierarchy level and an index.
// It panics if index does not fit in 56 bits or level is 255 (reserved so
// that Nil can never collide with a real block).
func MakeID(level int, index uint64) BlockID {
	if uint(level) >= 255 || index > uint64(indexMask) {
		badID(level, index)
	}
	return BlockID(uint64(level)<<levelShift | index)
}

// badID panics for MakeID; kept out of it so that MakeID inlines.
func badID(level int, index uint64) {
	if level < 0 || level >= 255 {
		//proram:invariant an out-of-range hierarchy level means the caller's geometry is corrupt; IDs must never encode it
		panic(fmt.Sprintf("mem: hierarchy level %d out of range", level))
	}
	//proram:invariant an index over 56 bits cannot be encoded; configurations size hierarchies orders of magnitude below this
	panic(fmt.Sprintf("mem: block index %d overflows 56 bits", index))
}

// Level returns the hierarchy level encoded in id (0 for data blocks).
func (id BlockID) Level() int { return int(id >> levelShift) }

// Index returns the within-level index encoded in id.
func (id BlockID) Index() uint64 { return uint64(id & indexMask) }

// IsNil reports whether id is the nil sentinel.
func (id BlockID) IsNil() bool { return id == Nil }

// String implements fmt.Stringer for diagnostics.
func (id BlockID) String() string {
	if id.IsNil() {
		return "blk<nil>"
	}
	return fmt.Sprintf("blk<L%d:%d>", id.Level(), id.Index())
}

// Leaf is a leaf label of the ORAM binary tree, in [0, 2^L).
type Leaf uint64

// NoLeaf marks an unassigned position-map entry.
const NoLeaf Leaf = ^Leaf(0)

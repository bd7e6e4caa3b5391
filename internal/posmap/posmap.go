// Package posmap implements the recursive (Unified ORAM) position map:
// the lookup structure that associates every block with the tree path it
// is mapped to, stored as position-map blocks that are themselves ORAM
// blocks in the same binary tree, topped by a small on-chip table.
//
// Each position-map block covers Fanout consecutive child blocks and, for
// the level-1 blocks that describe data blocks, also carries the PrORAM
// metadata: super-block sizes, merge/break counters and prefetch bits —
// exactly the layout of the paper's Figure 4, where a counter is the
// concatenation of the per-block counter bits and is reconstructed
// whenever the block's mapping is loaded.
package posmap

import (
	"fmt"

	"proram/internal/mem"
)

// Config sizes the hierarchy.
type Config struct {
	// NumBlocks is the number of data (level-0) blocks.
	NumBlocks uint64
	// Fanout is the number of child mappings per position-map block
	// (32 in the paper: 128-byte blocks, 25-bit leaf labels + 2 bits).
	Fanout int
	// OnChipMax is the largest level that may be kept entirely on-chip;
	// recursion stops once a level has at most this many blocks.
	OnChipMax uint64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.NumBlocks == 0 {
		return fmt.Errorf("posmap: NumBlocks must be positive")
	}
	if c.Fanout < 2 {
		return fmt.Errorf("posmap: Fanout %d must be >= 2", c.Fanout)
	}
	if c.OnChipMax == 0 {
		return fmt.Errorf("posmap: OnChipMax must be positive")
	}
	return nil
}

// Entry is one child mapping inside a position-map block.
type Entry struct {
	// Leaf is the tree path the child block is mapped to, or mem.NoLeaf if
	// the child has never been touched (lazy initialization).
	Leaf mem.Leaf
	// SBSize is the size of the super block the child belongs to (1 when
	// not merged). Only meaningful in level-1 blocks (children are data).
	SBSize uint8
	// Prefetch mirrors the paper's per-block prefetch bit: set when the
	// block was brought in as part of a super block without being the
	// demand target. Stored in the position map (paper §4.5.1).
	Prefetch bool
}

// Block is one position-map block. Its identity as an ORAM block is
// mem.MakeID(level, index); its contents are the child entries plus the
// counter bits for the groups it covers.
type Block struct {
	Level   int
	Index   uint64
	Entries []Entry
	// mergeCtr[o] is the merge counter of the neighbor pair whose lower
	// group starts at child offset o. breakCtr[o] is the break counter of
	// the super block starting at child offset o. Counters are saturating
	// uint8s: the paper packs them into the per-entry spare bits; we allow
	// the full byte and document the widening (behaviour is identical
	// because thresholds are far below 255).
	mergeCtr []uint8
	breakCtr []uint8
}

// ID returns the block's ORAM identity.
func (b *Block) ID() mem.BlockID { return mem.MakeID(b.Level, b.Index) }

// MergeCounter returns the merge counter for the pair whose lower half
// starts at offset o.
func (b *Block) MergeCounter(o int) uint8 { return b.mergeCtr[o] }

// AddMergeCounter adjusts the merge counter at offset o by delta with
// saturation at [0, 255], as in the paper's footnote 1.
func (b *Block) AddMergeCounter(o int, delta int) uint8 {
	v := int(b.mergeCtr[o]) + delta
	if v < 0 {
		v = 0
	}
	if v > 255 {
		v = 255
	}
	b.mergeCtr[o] = uint8(v)
	return b.mergeCtr[o]
}

// ResetMergeCounter clears the counter after a merge or break
// "reconstructs" the bits for a different group size.
func (b *Block) ResetMergeCounter(o int) { b.mergeCtr[o] = 0 }

// BreakCounter returns the break counter of the super block at offset o.
func (b *Block) BreakCounter(o int) uint8 { return b.breakCtr[o] }

// SetBreakCounter sets the break counter (used on merge: initialized to 2n).
func (b *Block) SetBreakCounter(o int, v uint8) { b.breakCtr[o] = v }

// Hierarchy is the full recursive position map. Level 0 is the data; levels
// 1..Depth() are position-map blocks living in the ORAM tree; the leaves of
// the level-Depth blocks are held on-chip.
type Hierarchy struct {
	cfg    Config
	counts []uint64   // counts[l] = number of blocks at level l (l=0 is data)
	blocks [][]*Block // blocks[l][index] for l >= 1; nil until first touch
	onChip []mem.Leaf // leaves of the top-level (level Depth) blocks; NoLeaf until assigned
}

// New builds the hierarchy. Position-map block contents are materialized
// lazily on first use (they are Go structs; whether they are "in the
// tree" is the controller's business), with every leaf unassigned.
func New(cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// There is always at least one position-map level: level-1 blocks hold
	// the data blocks' leaf labels plus the PrORAM counter bits, even when
	// the data population would fit on-chip.
	counts := []uint64{cfg.NumBlocks}
	for len(counts) == 1 || counts[len(counts)-1] > cfg.OnChipMax {
		n := counts[len(counts)-1]
		counts = append(counts, (n+uint64(cfg.Fanout)-1)/uint64(cfg.Fanout))
	}
	h := &Hierarchy{cfg: cfg, counts: counts}
	// One pointer per position-map block up front; the blocks themselves
	// (entries and counters, ~80x the pointer) stay lazy, so a sparsely
	// touched hierarchy stays small.
	h.blocks = make([][]*Block, len(counts))
	for l := 1; l < len(counts); l++ {
		h.blocks[l] = make([]*Block, counts[l])
	}
	h.onChip = make([]mem.Leaf, counts[len(counts)-1])
	for i := range h.onChip {
		h.onChip[i] = mem.NoLeaf
	}
	return h, nil
}

// materialize returns the block at (level, index), creating it with
// unassigned entries on first touch. Callers pass 1 <= level <= Depth()
// and index < Count(level).
func (h *Hierarchy) materialize(level int, index uint64) *Block {
	if b := h.blocks[level][index]; b != nil {
		return b
	}
	nChildren := h.cfg.Fanout
	if rem := h.counts[level-1] - index*uint64(h.cfg.Fanout); rem < uint64(nChildren) {
		nChildren = int(rem)
	}
	b := &Block{Level: level, Index: index, Entries: make([]Entry, nChildren)} //proram:allow allocdiscipline lazy one-time materialization per position-map block, amortized across all later touches
	for e := range b.Entries {
		b.Entries[e] = Entry{Leaf: mem.NoLeaf, SBSize: 1}
	}
	if level == 1 {
		// Both counter arrays share one backing array.
		ctrs := make([]uint8, 2*nChildren) //proram:allow allocdiscipline one-time per-block counter storage, allocated on first touch
		b.mergeCtr, b.breakCtr = ctrs[:nChildren:nChildren], ctrs[nChildren:]
	}
	h.blocks[level][index] = b
	return b
}

// Depth returns the number of position-map levels above the data. The
// paper's "number of ORAM hierarchies" is Depth()+1 (data included),
// counting the on-chip table as free.
func (h *Hierarchy) Depth() int { return len(h.counts) - 1 }

// Count returns the number of blocks at the given hierarchy level
// (level 0 = data blocks).
func (h *Hierarchy) Count(level int) uint64 { return h.counts[level] }

// Fanout returns the configured entries-per-block.
func (h *Hierarchy) Fanout() int { return h.cfg.Fanout }

// Block returns the position-map block at the given level (>= 1) and index,
// materializing it on first touch.
//
//proram:hotpath fetched for every data access
func (h *Hierarchy) Block(level int, index uint64) *Block {
	// Depth() == len(counts)-1; phrasing the guard against the hoisted
	// slice hands the bounds prover the exact fact it needs below.
	counts := h.counts
	if level < 1 || level > len(counts)-1 {
		//proram:invariant levels come from mem.BlockID values the controller built with MakeID against this hierarchy's depth
		panic(fmt.Sprintf("posmap: Block level %d out of range [1,%d]", level, h.Depth()))
	}
	if index >= counts[level] {
		//proram:invariant indices come from mem.BlockID values bounds-checked at construction, so a hot-path error return would only hide corruption
		panic(fmt.Sprintf("posmap: Block index %d out of range at level %d", index, level))
	}
	return h.materialize(level, index)
}

// Parent returns the (parentIndex, slot) coordinates of the entry that maps
// the block at (level, index): its mapping lives in block
// (level+1, parentIndex) at the given slot. Valid for level < Depth().
func (h *Hierarchy) Parent(level int, index uint64) (uint64, int) {
	return index / uint64(h.cfg.Fanout), int(index % uint64(h.cfg.Fanout))
}

// EntryFor returns the position-map entry describing block (level, index).
// For level == Depth() the mapping is on-chip and has no Entry; use
// TopLeaf/SetTopLeaf instead.
//
//proram:hotpath position lookup on every path read
func (h *Hierarchy) EntryFor(level int, index uint64) *Entry {
	counts := h.counts
	if level < 0 || level >= len(counts)-1 {
		//proram:invariant callers branch to TopLeaf for level == Depth() first; reaching here with one is a recursion bug, not an input error
		panic(fmt.Sprintf("posmap: EntryFor level %d has no parent block (depth %d)", level, h.Depth()))
	}
	if index >= counts[level] {
		//proram:invariant indices come from mem.BlockID values bounds-checked at construction; past the level's count there is no slab slot to materialize
		panic(fmt.Sprintf("posmap: EntryFor index %d out of range at level %d", index, level))
	}
	pi, slot := h.Parent(level, index)
	return &h.materialize(level+1, pi).Entries[slot] //proram:allow boundscheck slot = index mod Fanout and every materialized block carries Fanout entries; the container is a call result the prover cannot name
}

// TopLeaf returns the on-chip leaf of the top-level block at index, or
// mem.NoLeaf if it was never assigned.
//
//proram:hotpath on-chip table read for every recursion walk
func (h *Hierarchy) TopLeaf(index uint64) mem.Leaf {
	onChip := h.onChip
	i := int(index)
	if i < 0 || i >= len(onChip) {
		return mem.NoLeaf // not a top-level block: never assigned
	}
	return onChip[i]
}

// SetTopLeaf updates the on-chip mapping of a top-level block.
func (h *Hierarchy) SetTopLeaf(index uint64, leaf mem.Leaf) {
	if index >= uint64(len(h.onChip)) {
		//proram:invariant indices come from mem.BlockID values the controller built against this hierarchy's top-level count
		panic(fmt.Sprintf("posmap: SetTopLeaf index %d out of range (%d top-level blocks)", index, len(h.onChip)))
	}
	h.onChip[index] = leaf
}

// TotalBlocks returns the number of ORAM-resident blocks across all levels
// (data + all position-map levels). This sizes the tree.
func (h *Hierarchy) TotalBlocks() uint64 {
	total := uint64(0)
	for _, c := range h.counts {
		total += c
	}
	return total
}

// GroupStart returns the aligned start offset of the size-n group that
// child offset o belongs to.
func GroupStart(o, n int) int { return o &^ (n - 1) }

// NeighborStart returns the start offset of the neighbor group of the
// size-n group starting at o: the other half of the enclosing size-2n
// aligned group (paper §4.1's "neighbor block").
func NeighborStart(o, n int) int { return o ^ n }

// PairStart returns the start of the enclosing size-2n group, where the
// merge counter for the (group, neighbor) pair lives.
func PairStart(o, n int) int { return o &^ (2*n - 1) }

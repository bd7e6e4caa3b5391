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
//
// A level is one flat array of 8-byte entries indexed by the child's own
// index, and the zero entry is the never-touched state, so construction is
// one make per level and a position-map block is a window onto Fanout
// consecutive entries, not an object.
package posmap

import (
	"fmt"
	"math"

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

// levelCounts returns the number of blocks at every level of a valid
// configuration, data first. There is always at least one position-map
// level: level-1 blocks hold the data blocks' leaf labels plus the PrORAM
// counter bits, even when the data population would fit on-chip.
func (c Config) levelCounts() []uint64 {
	counts := []uint64{c.NumBlocks}
	for n := c.NumBlocks; len(counts) == 1 || n > c.OnChipMax; {
		n = (n-1)/uint64(c.Fanout) + 1
		counts = append(counts, n)
	}
	return counts
}

// TotalBlocks returns the number of ORAM-resident blocks across all levels
// (data + all position-map levels) of a valid configuration, by arithmetic
// alone: this sizes the tree, and lets a caller bound the geometry before
// New allocates for it.
func (c Config) TotalBlocks() uint64 {
	total := uint64(0)
	for _, n := range c.levelCounts() {
		total += n
	}
	return total
}

// Entry is one child mapping inside a position-map block, packed like the
// paper's Figure 4 slot: leaf label, super-block size, prefetch bit and the
// counter bits in 8 bytes. The zero Entry is a child that was never
// touched: no leaf, a super block of one, counters at zero.
type Entry struct {
	// Leaf is the tree path the child block is mapped to plus one, so that
	// zero means never assigned (lazy initialization). Read it with Label
	// and write it with SetLabel.
	Leaf uint32
	// size is the size of the super block the child belongs to, minus one.
	// Only meaningful in level-1 blocks (children are data).
	size uint8
	// Prefetch mirrors the paper's per-block prefetch bit: set when the
	// block was brought in as part of a super block without being the
	// demand target. Stored in the position map (paper §4.5.1).
	Prefetch bool
	// merge is the merge counter of the neighbor pair whose lower group
	// starts at this child; brk is the break counter of the super block
	// starting at this child. Counters are saturating uint8s: the paper
	// spreads them over the spare bits of a group's entries; we allow the
	// full byte and document the widening (behaviour is identical because
	// thresholds are far below 255).
	merge, brk uint8
}

// Label returns the leaf the child is mapped to, or mem.NoLeaf if it has
// never been touched.
func (e *Entry) Label() mem.Leaf { return mem.Leaf(e.Leaf) - 1 }

// SetLabel maps the child to leaf; mem.NoLeaf unmaps it.
func (e *Entry) SetLabel(leaf mem.Leaf) {
	v := uint64(leaf) + 1
	if v > math.MaxUint32 {
		//proram:invariant labels are drawn below the tree's leaf count, which the controller's configuration check holds to 31 levels; a wider one would be stored truncated
		panic(fmt.Sprintf("posmap: leaf label %d does not fit an entry", leaf))
	}
	e.Leaf = uint32(v)
}

// Size returns the size of the super block the child belongs to (1 when
// not merged).
func (e *Entry) Size() int { return int(e.size) + 1 }

// SetSize records the size of the child's super block, in [1, 256].
func (e *Entry) SetSize(n int) { e.size = uint8(n - 1) }

// Block is one position-map block: a view of the Fanout consecutive
// entries it covers (fewer in a level's last block). Its identity as an
// ORAM block is mem.MakeID(level, index); writes through Entries and the
// counter methods land in the hierarchy.
type Block struct {
	Level   int
	Index   uint64
	Entries []Entry
}

// AddMergeCounter adjusts the merge counter at offset o by delta with
// saturation at [0, 255], as in the paper's footnote 1.
func (b Block) AddMergeCounter(o int, delta int) uint8 {
	v := uint8(min(max(int(b.Entries[o].merge)+delta, 0), 255))
	b.Entries[o].merge = v
	return v
}

// ResetMergeCounter clears the counter after a merge or break
// "reconstructs" the bits for a different group size.
func (b Block) ResetMergeCounter(o int) { b.Entries[o].merge = 0 }

// BreakCounter returns the break counter of the super block at offset o.
func (b Block) BreakCounter(o int) uint8 { return b.Entries[o].brk }

// SetBreakCounter sets the break counter (used on merge: initialized to 2n).
func (b Block) SetBreakCounter(o int, v uint8) { b.Entries[o].brk = v }

// Hierarchy is the full recursive position map. Level 0 is the data; levels
// 1..Depth() are position-map blocks living in the ORAM tree; the leaves of
// the level-Depth blocks are held on-chip.
type Hierarchy struct {
	cfg    Config
	levels []level
	onChip []mem.Leaf // leaves of the top-level (level Depth) blocks; NoLeaf until assigned
}

// level is one level of the hierarchy.
type level struct {
	count uint64 // number of blocks at this level
	// entries is the content of all the level's blocks laid end to end:
	// entries[i] maps block i of the level below. Nil at level 0, the data.
	entries []Entry
}

// New builds the hierarchy with every leaf unassigned. The entry arrays
// come zeroed from the allocator and zero is the untouched state, so a
// sparsely touched hierarchy never pages most of them in.
func New(cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	counts := cfg.levelCounts()
	h := &Hierarchy{cfg: cfg, levels: make([]level, len(counts))}
	for l, n := range counts {
		h.levels[l].count = n
		if l > 0 {
			h.levels[l].entries = make([]Entry, counts[l-1])
		}
	}
	h.onChip = make([]mem.Leaf, counts[len(counts)-1])
	for i := range h.onChip {
		h.onChip[i] = mem.NoLeaf
	}
	return h, nil
}

// Depth returns the number of position-map levels above the data. The
// paper's "number of ORAM hierarchies" is Depth()+1 (data included),
// counting the on-chip table as free.
func (h *Hierarchy) Depth() int { return len(h.levels) - 1 }

// Count returns the number of blocks at the given hierarchy level
// (level 0 = data blocks).
func (h *Hierarchy) Count(level int) uint64 { return h.levels[level].count }

// Block returns the position-map block at the given level (>= 1) and index.
func (h *Hierarchy) Block(level int, index uint64) Block {
	levels := h.levels
	if level < 1 || level >= len(levels) {
		//proram:invariant levels come from mem.BlockID values the controller built with MakeID against this hierarchy's depth
		panic(fmt.Sprintf("posmap: Block level %d out of range [1,%d]", level, h.Depth()))
	}
	lv := &levels[level]
	if index >= lv.count {
		//proram:invariant indices come from mem.BlockID values bounds-checked at construction, so a hot-path error return would only hide corruption
		panic(fmt.Sprintf("posmap: Block index %d out of range at level %d", index, level))
	}
	// index < count = ceil(children/Fanout), so lo is a child index; only a
	// level's last block can fall short of Fanout children.
	lo := index * uint64(h.cfg.Fanout)
	hi := min(lo+uint64(h.cfg.Fanout), uint64(len(lv.entries)))
	return Block{Level: level, Index: index, Entries: lv.entries[lo:hi:hi]}
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
func (h *Hierarchy) EntryFor(level int, index uint64) *Entry {
	levels := h.levels
	if level < 0 || level >= len(levels)-1 {
		//proram:invariant callers branch to TopLeaf for level == Depth() first; reaching here with one is a recursion bug, not an input error
		panic(fmt.Sprintf("posmap: EntryFor level %d has no parent block (depth %d)", level, h.Depth()))
	}
	siblings := levels[level+1].entries
	i := int(index)
	if i < 0 || i >= len(siblings) {
		//proram:invariant indices come from mem.BlockID values bounds-checked at construction; past the level's count there is no entry
		panic(fmt.Sprintf("posmap: EntryFor index %d out of range at level %d", index, level))
	}
	return &siblings[i]
}

// TopLeaf returns the on-chip leaf of the top-level block at index, or
// mem.NoLeaf if it was never assigned.
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

// TotalBlocks returns the number of ORAM-resident blocks across all levels.
func (h *Hierarchy) TotalBlocks() uint64 { return h.cfg.TotalBlocks() }

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

package posmap

import (
	"slices"
	"testing"

	"proram/internal/mem"
	"proram/internal/rng"
)

// The model hierarchy: 77 data blocks under fanout 4 give levels of 77, 20,
// 5 and 2 blocks, so the last block of level 1 (one child) and of level 3
// (one child) are partial and level 2's is full.
var modelCfg = Config{NumBlocks: 77, Fanout: 4, OnChipMax: 2}

// modelEntry is one child mapping as the packed Entry must report it.
type modelEntry struct {
	leaf       mem.Leaf
	size       int
	prefetch   bool
	merge, brk uint8
}

// untouched is what a child that no operation has named must read as.
var untouched = modelEntry{leaf: mem.NoLeaf, size: 1}

// child names the block an entry maps.
type child struct {
	level int
	index uint64
}

// model is the reference the packed arrays are checked against: a map from
// child to its mapping, absent meaning untouched, and a map for the on-chip
// table.
type model struct {
	entries map[child]modelEntry
	top     map[uint64]mem.Leaf
}

func (m *model) entry(c child) modelEntry {
	if e, ok := m.entries[c]; ok {
		return e
	}
	return untouched
}

func (m *model) topLeaf(index uint64) mem.Leaf {
	if leaf, ok := m.top[index]; ok {
		return leaf
	}
	return mem.NoLeaf
}

// observe reads child c's mapping through both of the hierarchy's views —
// EntryFor and the parent Block — and fails if they disagree.
func observe(t *testing.T, step int, h *Hierarchy, c child) modelEntry {
	t.Helper()
	pi, slot := h.Parent(c.level, c.index)
	pb := h.Block(c.level+1, pi)
	fanout := uint64(h.cfg.Fanout)
	children := min(fanout, h.Count(c.level)-pi*fanout)
	if uint64(len(pb.Entries)) != children || cap(pb.Entries) != len(pb.Entries) {
		t.Fatalf("step %d: block (%d,%d) views %d entries (cap %d), want %d",
			step, c.level+1, pi, len(pb.Entries), cap(pb.Entries), children)
	}
	if pb.Level != c.level+1 || pb.Index != pi {
		t.Fatalf("step %d: block (%d,%d) is block (%d,%d)", step, c.level+1, pi, pb.Level, pb.Index)
	}
	e := h.EntryFor(c.level, c.index)
	if e != &pb.Entries[slot] {
		t.Fatalf("step %d: EntryFor(%d,%d) is not slot %d of its parent block", step, c.level, c.index, slot)
	}
	return modelEntry{
		leaf:     e.Label(),
		size:     e.Size(),
		prefetch: e.Prefetch,
		merge:    pb.Entries[slot].merge,
		brk:      pb.BreakCounter(slot),
	}
}

// runModel decodes data as an operation sequence (four bytes each: opcode,
// level, two operand bytes), applies it to a Hierarchy and to the model,
// and fails on the first observable difference; at the end every entry of
// every level is compared, touched or not.
func runModel(t *testing.T, data []byte) {
	t.Helper()
	h := mustNew(t, modelCfg)
	m := &model{entries: map[child]modelEntry{}, top: map[uint64]mem.Leaf{}}
	depth := h.Depth()

	for step := 0; step+4 <= len(data); step += 4 {
		op, lvl := data[step], int(data[step+1])%depth
		arg := uint64(data[step+2])<<8 | uint64(data[step+3])
		c := child{level: lvl, index: arg % h.Count(lvl)}
		pi, slot := h.Parent(c.level, c.index)
		pb := h.Block(c.level+1, pi)
		want := m.entry(c)
		switch op % 8 {
		case 0:
			// Labels up to the widest a 31-level tree draws; every eighth
			// unmaps the child again.
			want.leaf = mem.Leaf(arg * 0x10001 % (1 << 31))
			if arg%8 == 0 {
				want.leaf = mem.NoLeaf
			}
			h.EntryFor(c.level, c.index).SetLabel(want.leaf)
		case 1:
			want.size = 1 << (arg % 9) // 1..256
			pb.Entries[slot].SetSize(want.size)
		case 2:
			want.prefetch = arg%2 == 1
			h.EntryFor(c.level, c.index).Prefetch = want.prefetch
		case 3:
			delta := int(arg%600) - 300
			want.merge = uint8(min(max(int(want.merge)+delta, 0), 255))
			if got := pb.AddMergeCounter(slot, delta); got != want.merge {
				t.Fatalf("step %d: AddMergeCounter(%d) = %d, model %d", step, delta, got, want.merge)
			}
		case 4:
			want.merge = 0
			pb.ResetMergeCounter(slot)
		case 5:
			want.brk = uint8(arg)
			pb.SetBreakCounter(slot, want.brk)
		case 6:
			index := arg % h.Count(depth)
			leaf := mem.Leaf(arg * 0x10001)
			h.SetTopLeaf(index, leaf)
			m.top[index] = leaf
		case 7:
			// Read only.
		}
		m.entries[c] = want
		if got := observe(t, step, h, c); got != want {
			t.Fatalf("step %d: op %d on child (%d,%d) left %+v, model %+v", step, op%8, c.level, c.index, got, want)
		}
	}

	for lvl := 0; lvl < depth; lvl++ {
		for i := uint64(0); i < h.Count(lvl); i++ {
			c := child{level: lvl, index: i}
			if got, want := observe(t, len(data), h, c), m.entry(c); got != want {
				t.Fatalf("final sweep: child (%d,%d) reads %+v, model %+v", lvl, i, got, want)
			}
		}
	}
	for i := uint64(0); i <= h.Count(depth); i++ { // one past the table reads as unassigned
		if got, want := h.TopLeaf(i), m.topLeaf(i); got != want {
			t.Fatalf("final sweep: TopLeaf(%d) = %d, model %d", i, got, want)
		}
	}
}

// modelOps draws an operation sequence: n ops, four seeded bytes each.
func modelOps(seed uint64, n int) []byte {
	r := rng.New(seed)
	data := make([]byte, 4*n)
	for i := range data {
		data[i] = byte(r.Intn(256))
	}
	return data
}

// TestAgainstModel drives long seeded sequences through the hierarchy and
// the model.
func TestAgainstModel(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		runModel(t, modelOps(seed, 4000))
	}
}

// FuzzAgainstModel is the same differential check over fuzzer-chosen
// sequences. The seed corpus runs as part of the ordinary test suite.
func FuzzAgainstModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 76, 1, 0, 0, 76, 3, 0, 0, 76, 5, 0, 0, 76}) // the lone child of level 1's partial block
	f.Add([]byte{0, 2, 0, 4, 0, 2, 0, 24, 6, 0, 0, 1})                // level 3's partial block, unmap, on-chip table
	f.Add(modelOps(11, 300))
	f.Add(modelOps(12, 1500))
	f.Fuzz(func(t *testing.T, data []byte) { runModel(t, data) })
}

// runPLBModel decodes data as a PLB capacity (first byte, 0..4) and an
// operation sequence (two bytes each: opcode, block) and applies it to a PLB
// and to the reference LRU — a slice, most recent first. It checks what the
// exclusive PLB promises its caller: a victim comes back exactly on
// overflow and is the least recently used block, a re-insert only promotes,
// and occupancy never passes the capacity.
func runPLBModel(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	capacity := int(data[0]) % 5
	p := NewPLB(capacity)
	var lru []mem.BlockID
	var hits, misses uint64
	promote := func(i int) {
		id := lru[i]
		copy(lru[1:i+1], lru[:i])
		lru[0] = id
	}
	for step := 1; step+2 <= len(data); step += 2 {
		id := mem.MakeID(1+int(data[step+1])%2, uint64(data[step+1])%7)
		at := slices.Index(lru, id)
		switch data[step] % 3 {
		case 0:
			if got := p.Lookup(id); got != (at >= 0) {
				t.Fatalf("step %d: Lookup(%v) = %v, model %v", step, id, got, at >= 0)
			}
			if at >= 0 {
				hits++
				promote(at)
			} else {
				misses++
			}
		case 1:
			victim, ok := p.Insert(id)
			wantVictim, wantOK := mem.Nil, false
			switch {
			case capacity == 0:
			case at >= 0:
				promote(at)
			case len(lru) < capacity:
				lru = append([]mem.BlockID{id}, lru...)
			default:
				wantVictim, wantOK = lru[len(lru)-1], true
				copy(lru[1:], lru)
				lru[0] = id
			}
			if victim != wantVictim || ok != wantOK {
				t.Fatalf("step %d: Insert(%v) = %v, %v; model %v, %v", step, id, victim, ok, wantVictim, wantOK)
			}
		case 2:
			if got := p.Contains(id); got != (at >= 0) {
				t.Fatalf("step %d: Contains(%v) = %v, model %v", step, id, got, at >= 0)
			}
		}
		if p.Len() != len(lru) || p.Len() > capacity {
			t.Fatalf("step %d: Len = %d, model %d, capacity %d", step, p.Len(), len(lru), capacity)
		}
	}
	if p.Hits() != hits || p.Misses() != misses {
		t.Fatalf("hits/misses = %d/%d, model %d/%d", p.Hits(), p.Misses(), hits, misses)
	}
}

// TestPLBAgainstModel drives seeded sequences through every capacity.
func TestPLBAgainstModel(t *testing.T) {
	for capacity := byte(0); capacity < 5; capacity++ {
		runPLBModel(t, append([]byte{capacity}, modelOps(20+uint64(capacity), 1000)...))
	}
}

// FuzzPLBAgainstModel is the same check over fuzzer-chosen sequences.
func FuzzPLBAgainstModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 3, 0, 3})                   // disabled: insert, lookup
	f.Add([]byte{2, 1, 0, 1, 1, 1, 0, 1, 2, 0, 1}) // fill, re-insert, overflow
	f.Add(append([]byte{3}, modelOps(13, 200)...))
	f.Fuzz(func(t *testing.T, data []byte) { runPLBModel(t, data) })
}

package stash

import (
	"testing"

	"proram/internal/mem"
	"proram/internal/rng"
	"proram/internal/tree"
)

// model is the reference the stash is checked against: a plain map for
// membership and a slice in insertion order, with the write-back written
// as the protocol states it (FreeAt/PlaceAt per block, the carry list
// resliced from the front) and a path read as one add per block. inTree
// holds the blocks the model wrote back and no path read has taken out
// since.
type model struct {
	order     []tree.Labeled
	index     map[mem.BlockID]bool
	inTree    map[mem.BlockID]bool
	highWater int
}

func (m *model) add(id mem.BlockID, leaf mem.Leaf) bool {
	if id.IsNil() || m.index[id] {
		return false
	}
	m.index[id] = true
	m.order = append(m.order, tree.Labeled{ID: id, Leaf: leaf})
	m.highWater = max(m.highWater, len(m.order))
	return true
}

func (m *model) setLeaf(id mem.BlockID, leaf mem.Leaf) bool {
	for i := range m.order {
		if m.order[i].ID == id {
			m.order[i].Leaf = leaf
			return true
		}
	}
	return false
}

func (m *model) remove(id mem.BlockID) bool {
	for i := range m.order {
		if m.order[i].ID == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			delete(m.index, id)
			return true
		}
	}
	return false
}

func (m *model) evictToPath(t *tree.Tree, accessLeaf mem.Leaf) int {
	groups := make([][]tree.Labeled, t.Levels()+1)
	for _, e := range m.order {
		d := t.CommonDepth(accessLeaf, e.Leaf)
		groups[d] = append(groups[d], e)
	}
	placed := 0
	var carry []tree.Labeled
	for depth := t.Levels(); depth >= 0; depth-- {
		carry = append(carry, groups[depth]...)
		for t.FreeAt(accessLeaf, depth) > 0 && len(carry) > 0 {
			e := carry[0]
			carry = carry[1:]
			// The block's own path passes through this bucket too.
			if !t.PlaceAt(e.Leaf, depth, e.ID) {
				panic("model: PlaceAt failed with a free slot")
			}
			m.remove(e.ID)
			m.inTree[e.ID] = true
			placed++
		}
	}
	return placed
}

// Geometry of the differential runs: a tree small enough to fill up, so
// that the stash piles far past its limit, and an id universe small enough
// that duplicate adds, re-adds of written-back blocks and probes of absent
// ids all happen.
const (
	modelLevels = 4
	modelZ      = 2
	modelLimit  = 8
	modelIDs    = 512
)

// coverage is what a differential run exercised of the stash's order.
type coverage struct {
	maxLive        int
	middleRemovals int // a Remove took a block with others stashed behind it
	addsInPath     int // an Add came between a ReadPath and its eviction
}

func (c *coverage) merge(o coverage) {
	c.maxLive = max(c.maxLive, o.maxLive)
	c.middleRemovals += o.middleRemovals
	c.addsInPath += o.addsInPath
}

// runModel decodes data as an operation sequence (three bytes each: opcode,
// two operand bytes), applies it to a Stash and to the model over twin
// trees, and fails on the first observable difference. Opcodes 8–11 aim
// at a block of the last path read. An add of a block that sits in the
// tree is skipped: a Path ORAM block is in the tree or in the stash, never
// both, and ReadPath relies on it.
func runModel(t *testing.T, data []byte) coverage {
	t.Helper()
	s := mustNew(t, modelLimit)
	m := &model{index: map[mem.BlockID]bool{}, inTree: map[mem.BlockID]bool{}}
	ts, tm := tree.New(modelLevels, modelZ), tree.New(modelLevels, modelZ)
	leaves := ts.Leaves()
	var cov coverage
	var lastPath []mem.BlockID
	pathRead := false // a ReadPath has come since the last eviction

	add := func(step int, id mem.BlockID, leaf mem.Leaf) {
		if m.inTree[id] {
			return
		}
		err := s.Add(id, leaf)
		if ok := m.add(id, leaf); ok != (err == nil) {
			t.Fatalf("step %d: Add(%v) error %v, model accepted=%v", step, id, err, ok)
		}
		if err == nil && pathRead {
			cov.addsInPath++
		}
	}

	for step := 0; step+3 <= len(data); step += 3 {
		op, a, b := data[step], data[step+1], data[step+2]
		arg := uint64(a)<<8 | uint64(b)
		id := mem.MakeID(int(a&1), arg%modelIDs)
		leaf := mem.Leaf(arg % leaves)
		op %= 12
		if op >= 8 {
			if len(lastPath) == 0 {
				continue
			}
			id = lastPath[arg%uint64(len(lastPath))]
		}
		switch op {
		case 0, 1, 8:
			add(step, id, leaf)
		case 2:
			// A burst of adds: the way occupancy gets past twice the limit.
			for i := uint64(0); i < 1+arg%24; i++ {
				add(step, mem.MakeID(0, (arg+i*7)%modelIDs), mem.Leaf((arg+i)%leaves))
			}
		case 3, 9:
			got, want := s.SetLeaf(id, leaf), m.setLeaf(id, leaf)
			if got != want {
				t.Fatalf("step %d: SetLeaf(%v) = %v, model %v", step, id, got, want)
			}
		case 4, 10:
			if got, want := s.Contains(id), m.index[id]; got != want {
				t.Fatalf("step %d: Contains(%v) = %v, model %v", step, id, got, want)
			}
		case 5:
			got, want := s.EvictToPath(ts, leaf), m.evictToPath(tm, leaf)
			if got != want {
				t.Fatalf("step %d: EvictToPath(%d) placed %d, model %d", step, leaf, got, want)
			}
			pathRead = false
		case 6:
			// The read phase of an access: the path's blocks come back with
			// the labels they were written back under, behind the blocks
			// already stashed.
			before := len(s.order)
			s.ReadPath(ts, leaf)
			path := s.order[before:]
			mpath := tm.RemovePathSlots(leaf, nil)
			if len(path) != len(mpath) {
				t.Fatalf("step %d: twin paths hold %d and %d blocks", step, len(path), len(mpath))
			}
			lastPath = lastPath[:0]
			for i, back := range mpath {
				if path[i] != back {
					t.Fatalf("step %d: path block %d is %v@%d, twin %v@%d",
						step, i, path[i].Block(), path[i].Leaf(), back.Block(), back.Leaf())
				}
				delete(m.inTree, back.Block())
				if !m.add(back.Block(), back.Leaf()) {
					t.Fatalf("step %d: path block %v is stashed already", step, back.Block())
				}
				lastPath = append(lastPath, back.Block())
			}
			pathRead = true
		case 7, 11:
			if i := s.find(id); i >= 0 && i < len(s.order)-1 {
				cov.middleRemovals++
			}
			if got, want := s.Remove(id), m.remove(id); got != want {
				t.Fatalf("step %d: Remove(%v) = %v, model %v", step, id, got, want)
			}
		}

		if s.Size() != len(m.order) || s.HighWater() != m.highWater {
			t.Fatalf("step %d: size %d high water %d, model %d and %d",
				step, s.Size(), s.HighWater(), len(m.order), m.highWater)
		}
		if s.OverLimit() != (len(m.order) > modelLimit) {
			t.Fatalf("step %d: OverLimit = %v at size %d", step, s.OverLimit(), s.Size())
		}
		i := 0
		s.ForEach(func(id mem.BlockID, leaf mem.Leaf) {
			if i >= len(m.order) || m.order[i] != (tree.Labeled{ID: id, Leaf: leaf}) {
				t.Fatalf("step %d: ForEach entry %d = %v@%d, not the model's", step, i, id, leaf)
			}
			i++
		})
		if i != len(m.order) {
			t.Fatalf("step %d: ForEach visited %d blocks, model holds %d", step, i, len(m.order))
		}
		cov.maxLive = max(cov.maxLive, s.Size())
	}

	// The twin trees received the same blocks, under the same labels, in
	// the same slots.
	type resident struct {
		node uint64
		slot int
		b    tree.Labeled
	}
	var inS, inM []resident
	ts.ForEach(func(node uint64, i int, b tree.Labeled) { inS = append(inS, resident{node, i, b}) })
	tm.ForEach(func(node uint64, i int, b tree.Labeled) { inM = append(inM, resident{node, i, b}) })
	if len(inS) != len(inM) {
		t.Fatalf("trees hold %d and %d blocks", len(inS), len(inM))
	}
	for i := range inS {
		if inS[i] != inM[i] {
			t.Fatalf("trees differ at resident %d: %v vs %v", i, inS[i], inM[i])
		}
	}
	return cov
}

// modelOps draws an operation sequence: n ops, three seeded bytes each.
func modelOps(seed uint64, n int) []byte {
	r := rng.New(seed)
	data := make([]byte, 3*n)
	for i := range data {
		data[i] = byte(r.Intn(256))
	}
	return data
}

// op encodes one model operation: its opcode and a two-byte operand.
func op(code byte, arg uint16) []byte { return []byte{code, byte(arg >> 8), byte(arg)} }

// readBackOps is built to remove blocks from the middle of order while a
// path read's blocks are stashed. Three bursts stash 72 blocks; evictions
// write some onto paths 0 and 15; path 0 is read back and path 15 read
// before anything is written back; then the first two bursts' blocks are
// removed one by one, ahead of both paths' blocks.
func readBackOps() []byte {
	var data []byte
	for _, arg := range []uint16{23, 47, 71} {
		data = append(data, op(2, arg)...)
	}
	data = append(data, op(5, 0)...)
	data = append(data, op(5, 15)...)
	data = append(data, op(6, 0)...)
	data = append(data, op(6, 15)...)
	for _, first := range []uint16{23, 47} {
		for i := uint16(0); i < 24; i++ {
			data = append(data, op(7, first+7*i)...)
		}
	}
	return data
}

// TestAgainstModel drives long seeded sequences through the stash and the
// model, and checks that they went where the order is at risk: occupancy
// past twice the limit, removals from the middle of order, and adds
// between a path read and its write-back, whose blocks then sit behind
// the path's.
func TestAgainstModel(t *testing.T) {
	var total coverage
	for seed := uint64(1); seed <= 4; seed++ {
		total.merge(runModel(t, modelOps(seed, 6000)))
	}
	total.merge(runModel(t, readBackOps()))
	t.Logf("coverage: %+v", total)
	if total.maxLive <= 2*modelLimit {
		t.Errorf("occupancy peaked at %d, want past %d", total.maxLive, 2*modelLimit)
	}
	if total.middleRemovals == 0 {
		t.Error("no Remove took a block from the middle of order")
	}
	if total.addsInPath == 0 {
		t.Error("no Add came between a path read and its eviction")
	}
}

// FuzzAgainstModel is the same differential check over fuzzer-chosen
// sequences. The seed corpus runs as part of the ordinary test suite.
func FuzzAgainstModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 0, 1, 7, 0, 1, 7, 0, 1})             // duplicate add, double remove
	f.Add([]byte{2, 0, 23, 2, 1, 23, 2, 2, 23, 5, 0, 3, 6, 0, 3}) // bursts, evict, read back
	f.Add(modelOps(11, 400))
	f.Add(modelOps(12, 2000))
	f.Add(readBackOps())
	f.Fuzz(func(t *testing.T, data []byte) { runModel(t, data) })
}

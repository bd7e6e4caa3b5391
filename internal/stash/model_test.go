package stash

import (
	"testing"

	"proram/internal/mem"
	"proram/internal/rng"
	"proram/internal/tree"
)

// model is the reference the open-addressed stash is checked against: a
// plain map for membership and a slice in insertion order, with the
// write-back written as the protocol states it (FreeAt/PlaceAt per block,
// the carry list resliced from the front).
type model struct {
	order     []entry
	index     map[mem.BlockID]bool
	highWater int
}

func (m *model) add(id mem.BlockID, leaf mem.Leaf) bool {
	if id.IsNil() || m.index[id] {
		return false
	}
	m.index[id] = true
	m.order = append(m.order, entry{id: id, leaf: leaf})
	m.highWater = max(m.highWater, len(m.order))
	return true
}

func (m *model) setLeaf(id mem.BlockID, leaf mem.Leaf) bool {
	for i := range m.order {
		if m.order[i].id == id {
			m.order[i].leaf = leaf
			return true
		}
	}
	return false
}

func (m *model) remove(id mem.BlockID) bool {
	for i := range m.order {
		if m.order[i].id == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			delete(m.index, id)
			return true
		}
	}
	return false
}

func (m *model) evictToPath(t *tree.Tree, accessLeaf mem.Leaf) int {
	groups := make([][]mem.BlockID, t.Levels()+1)
	for _, e := range m.order {
		d := t.CommonDepth(accessLeaf, e.leaf)
		groups[d] = append(groups[d], e.id)
	}
	placed := 0
	var carry []mem.BlockID
	for depth := t.Levels(); depth >= 0; depth-- {
		carry = append(carry, groups[depth]...)
		for t.FreeAt(accessLeaf, depth) > 0 && len(carry) > 0 {
			id := carry[0]
			carry = carry[1:]
			if !t.PlaceAt(accessLeaf, depth, id) {
				panic("model: PlaceAt failed with a free slot")
			}
			m.remove(id)
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

// coverage is what a differential run exercised of the table's life cycle.
type coverage struct {
	maxLive       int
	grown         bool // the table was reallocated larger
	rebuilds      int  // an Add found the table half used
	compactions   int  // a removal or eviction squeezed order
	reusedDeleted int  // an Add took a deleted slot instead of an empty one
}

func (c *coverage) merge(o coverage) {
	c.maxLive = max(c.maxLive, o.maxLive)
	c.grown = c.grown || o.grown
	c.rebuilds += o.rebuilds
	c.compactions += o.compactions
	c.reusedDeleted += o.reusedDeleted
}

// runModel decodes data as an operation sequence (three bytes each: opcode,
// two operand bytes), applies it to a Stash and to the model over twin
// trees, and fails on the first observable difference.
func runModel(t *testing.T, data []byte) coverage {
	t.Helper()
	s := mustNew(t, modelLimit)
	m := &model{index: map[mem.BlockID]bool{}}
	ts, tm := tree.New(modelLevels, modelZ), tree.New(modelLevels, modelZ)
	leaves := ts.Leaves()
	leafOf := map[mem.BlockID]mem.Leaf{} // last leaf given to each id, for re-adds
	initialTable := len(s.table)
	var cov coverage
	var buf []mem.BlockID

	add := func(step int, id mem.BlockID, leaf mem.Leaf) {
		rebuilds := !id.IsNil() && s.used >= len(s.table)/2
		reuses := false
		if !rebuilds {
			slot, _ := s.probe(id)
			reuses = *slot == slotDeleted
		}
		err := s.Add(id, leaf)
		if ok := m.add(id, leaf); ok != (err == nil) {
			t.Fatalf("step %d: Add(%v) error %v, model accepted=%v", step, id, err, ok)
		}
		if rebuilds {
			cov.rebuilds++
		}
		if err != nil {
			return
		}
		leafOf[id] = leaf
		if reuses {
			cov.reusedDeleted++
		}
	}

	for step := 0; step+3 <= len(data); step += 3 {
		op, a, b := data[step], data[step+1], data[step+2]
		arg := uint64(a)<<8 | uint64(b)
		id := mem.MakeID(int(a&1), arg%modelIDs)
		leaf := mem.Leaf(arg % leaves)
		switch op % 8 {
		case 0, 1:
			add(step, id, leaf)
		case 2:
			// A burst of adds: the way occupancy gets past twice the limit.
			for i := uint64(0); i < 1+arg%24; i++ {
				add(step, mem.MakeID(0, (arg+i*7)%modelIDs), mem.Leaf((arg+i)%leaves))
			}
		case 3:
			got, want := s.SetLeaf(id, leaf), m.setLeaf(id, leaf)
			if got != want {
				t.Fatalf("step %d: SetLeaf(%v) = %v, model %v", step, id, got, want)
			}
			if got {
				leafOf[id] = leaf
			}
		case 4:
			if got, want := s.Contains(id), m.index[id]; got != want {
				t.Fatalf("step %d: Contains(%v) = %v, model %v", step, id, got, want)
			}
		case 5:
			orderBefore := len(s.order)
			got, want := s.EvictToPath(ts, leaf), m.evictToPath(tm, leaf)
			if got != want {
				t.Fatalf("step %d: EvictToPath(%d) placed %d, model %d", step, leaf, got, want)
			}
			if len(s.order) < orderBefore {
				cov.compactions++
			}
		case 6:
			// The read phase of an access: the path's blocks come back.
			buf = ts.RemovePath(leaf, buf[:0])
			tm.RemovePath(leaf, nil)
			for _, back := range buf {
				add(step, back, leafOf[back])
			}
		case 7:
			orderBefore := len(s.order)
			if got, want := s.Remove(id), m.remove(id); got != want {
				t.Fatalf("step %d: Remove(%v) = %v, model %v", step, id, got, want)
			}
			if len(s.order) < orderBefore {
				cov.compactions++
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
			if i >= len(m.order) || m.order[i] != (entry{id: id, leaf: leaf}) {
				t.Fatalf("step %d: ForEach entry %d = %v@%d, not the model's", step, i, id, leaf)
			}
			i++
		})
		if i != len(m.order) {
			t.Fatalf("step %d: ForEach visited %d blocks, model holds %d", step, i, len(m.order))
		}
		if s.used < s.live || s.used > len(s.table)/2 {
			t.Fatalf("step %d: %d slots used for %d live in a table of %d", step, s.used, s.live, len(s.table))
		}
		cov.maxLive = max(cov.maxLive, s.Size())
		cov.grown = cov.grown || len(s.table) > initialTable
	}

	// The twin trees received the same blocks in the same slots.
	type resident struct {
		node uint64
		id   mem.BlockID
	}
	var inS, inM []resident
	ts.ForEach(func(node uint64, id mem.BlockID) { inS = append(inS, resident{node, id}) })
	tm.ForEach(func(node uint64, id mem.BlockID) { inM = append(inM, resident{node, id}) })
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

// TestAgainstModel drives long seeded sequences through the stash and the
// model, and checks that they went where the table is at risk: occupancy
// past twice the limit, table growth, compaction, reuse of deleted slots.
func TestAgainstModel(t *testing.T) {
	var total coverage
	for seed := uint64(1); seed <= 4; seed++ {
		total.merge(runModel(t, modelOps(seed, 6000)))
	}
	t.Logf("coverage: %+v", total)
	if total.maxLive <= 2*modelLimit {
		t.Errorf("occupancy peaked at %d, want past %d", total.maxLive, 2*modelLimit)
	}
	if !total.grown {
		t.Error("the table never grew")
	}
	if total.rebuilds == 0 || total.compactions == 0 {
		t.Errorf("%d rebuilds on Add and %d compactions on removal, want both", total.rebuilds, total.compactions)
	}
	if total.reusedDeleted == 0 {
		t.Error("no Add reused a deleted slot")
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
	f.Fuzz(func(t *testing.T, data []byte) { runModel(t, data) })
}

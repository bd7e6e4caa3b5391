package stash

import (
	"math/bits"
	"slices"
	"testing"

	"proram/internal/mem"
	"proram/internal/rng"
	"proram/internal/tree"
)

// evictRef is the write-back as EvictToPath did it before tree.EvictPath,
// kept as its reference: a stable counting sort of the stash by height
// above the leaf bucket, beside each block's position in order; the
// per-height walk from the leaf bucket up, each bucket taking the head of
// the sorted blocks that may go there into its free slots, first free slot
// first; then the placed entries zeroed in order and squeezed out. It
// returns the blocks kept, in order, and the number placed.
func evictRef(order []tree.Slot, t *tree.Tree, accessLeaf mem.Leaf) ([]tree.Slot, int) {
	levels := t.Levels()
	ends := make([]int, levels+1)
	heights := make([]int, len(order))
	for i, e := range order {
		h := bits.Len64(uint64(e.Leaf() ^ accessLeaf))
		heights[i] = h
		ends[h]++
	}
	start := 0
	for h, n := range ends {
		ends[h] = start
		start += n
	}
	sorted := make([]tree.Slot, len(order))
	pos := make([]int, len(order))
	for i, e := range order {
		h := heights[i]
		sorted[ends[h]] = e
		pos[ends[h]] = i
		ends[h]++
	}
	head := 0
	for h, end := range ends {
		depth := levels - h
		for head < end && t.FreeAt(accessLeaf, depth) > 0 {
			e := sorted[head]
			// The block's own path passes through this bucket too.
			if !t.PlaceAt(e.Leaf(), depth, e.Block()) {
				panic("evictRef: PlaceAt failed with a free slot")
			}
			head++
		}
	}
	order = slices.Clone(order)
	for _, p := range pos[:head] {
		order[p] = 0
	}
	return slices.DeleteFunc(order, func(e tree.Slot) bool { return e == 0 }), head
}

// slotAt is one occupied tree slot as ForEach reports it.
type slotAt struct {
	node uint64
	i    int
	b    tree.Labeled
}

func treeSlots(t *tree.Tree) []slotAt {
	var out []slotAt
	t.ForEach(func(node uint64, i int, b tree.Labeled) { out = append(out, slotAt{node, i, b}) })
	return out
}

// runEvict decodes data as a tree geometry (L 1–12, Z 1–5), an access
// leaf, a fill for each bucket on its path, and then one byte per step: a
// write-back to the access path (0xff) or the Add of a fresh block whose
// height above the leaf bucket, and with it the bucket it may reach, the
// byte picks. A final write-back closes the sequence. It applies the same
// sequence to a Stash over one tree and to evictRef over a twin, and fails
// unless every write-back leaves equal trees, slot for slot, equal stash
// order, equal return values and equal Used counts.
func runEvict(t *testing.T, data []byte) {
	t.Helper()
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	levels, z := 1+int(next()%12), 1+int(next()%5)
	got, want := tree.New(levels, z), tree.New(levels, z)
	access := mem.Leaf((uint64(next())<<8 | uint64(next())) & (got.Leaves() - 1))
	ids := uint64(0)
	for depth := 0; depth <= levels; depth++ {
		for range int(next()) % (z + 1) {
			// Any label that agrees with access above depth shares the bucket.
			leaf := access ^ mem.Leaf(uint64(next())&(1<<(levels-depth)-1))
			if !got.PlaceAt(leaf, depth, id(ids)) || !want.PlaceAt(leaf, depth, id(ids)) {
				t.Fatalf("prefill: bucket at depth %d refused a block", depth)
			}
			ids++
		}
	}
	label := func(b byte) mem.Leaf {
		h := int(b) % (levels + 1)
		if h == 0 {
			return access
		}
		return access ^ mem.Leaf(1<<(h-1)|uint64(b>>4)&(1<<(h-1)-1))
	}

	s := mustNew(t, 1)
	var order []tree.Slot
	writebacks := 0
	evict := func() {
		writebacks++
		n := s.EvictToPath(got, access)
		var m int
		order, m = evictRef(order, want, access)
		switch {
		case n != m:
			t.Fatalf("write-back %d (L=%d Z=%d, leaf %d): EvictToPath placed %d blocks, the reference %d", writebacks, levels, z, access, n, m)
		case !slices.Equal(s.order, order):
			t.Fatalf("write-back %d (L=%d Z=%d, leaf %d): stash order %v, the reference kept %v", writebacks, levels, z, access, s.order, order)
		case got.Used() != want.Used():
			t.Fatalf("write-back %d (L=%d Z=%d, leaf %d): Used %d, the reference %d", writebacks, levels, z, access, got.Used(), want.Used())
		case !slices.Equal(treeSlots(got), treeSlots(want)):
			t.Fatalf("write-back %d (L=%d Z=%d, leaf %d): the trees differ", writebacks, levels, z, access)
		}
	}
	for len(data) > 0 {
		b := next()
		if b == 0xff {
			evict()
			continue
		}
		leaf := label(b)
		mustAdd(t, s, id(ids), leaf)
		e, _ := tree.Pack(id(ids), leaf)
		order = append(order, e)
		ids++
	}
	evict()
}

// evictCase builds runEvict's input: n blocks (all on one leaf if oneLeaf)
// over a path whose buckets hold fill(z) blocks each, with a write-back in
// the middle of the adds and two at the end, the second with nothing added
// since the first.
func evictCase(r *rng.Source, levels, z, n int, fill func(z int) int, oneLeaf bool) []byte {
	data := []byte{byte(levels - 1), byte(z - 1), byte(r.Intn(256)), byte(r.Intn(256))}
	for range levels + 1 {
		k := fill(z)
		data = append(data, byte(k))
		for range k {
			data = append(data, byte(r.Intn(256)))
		}
	}
	same := byte(r.Intn(255))
	for i := range n {
		if i == n/2 {
			data = append(data, 0xff)
		}
		b := same
		if !oneLeaf {
			b = byte(r.Intn(255))
		}
		data = append(data, b)
	}
	return append(data, 0xff)
}

// TestEvictToPathMatchesReference runs every geometry from L 1 to 12 and Z
// 1 to 5 with stashes from empty to three times a path's capacity, spread
// over random leaves or all on one, over access paths empty, partly filled
// and full.
func TestEvictToPathMatchesReference(t *testing.T) {
	r := rng.New(46)
	fills := []func(z int) int{
		func(int) int { return 0 },
		func(z int) int { return r.Intn(z + 1) },
		func(z int) int { return z },
	}
	for levels := 1; levels <= 12; levels++ {
		for z := 1; z <= 5; z++ {
			capacity := z * (levels + 1)
			for _, n := range []int{0, 1, capacity / 2, capacity, 2 * capacity, 3 * capacity} {
				for _, fill := range fills {
					for _, oneLeaf := range []bool{false, true} {
						runEvict(t, evictCase(r, levels, z, n, fill, oneLeaf))
					}
				}
			}
		}
	}
}

// FuzzEvictToPath is the same comparison over fuzzer-chosen inputs. The
// seed corpus runs as part of the ordinary test suite.
func FuzzEvictToPath(f *testing.F) {
	r := rng.New(47)
	half := func(z int) int { return r.Intn(z + 1) }
	f.Add([]byte{})
	f.Add(evictCase(r, 3, 2, 20, half, false))
	f.Add(evictCase(r, 12, 5, 150, half, false))
	f.Add(evictCase(r, 7, 3, 48, half, true))
	f.Add(evictCase(r, 1, 1, 6, func(z int) int { return z }, false))
	f.Fuzz(runEvict)
}

package shard

import (
	"bytes"
	"slices"
	"testing"

	"proram/internal/rng"
	"proram/internal/superblock"
)

// modelBlocks is the block range the cache model exercises: small enough
// that a capacity of 16 lines sees hits, evictions and re-reads.
const modelBlocks = 32

// cacheModel is the reference a Cache is checked against: the contents
// every block should read as (a map; absent reads as zeros), the LRU as a
// slice, most recent first, and the victim queue as a slice, oldest first,
// with the cache's rules written out plainly. The one thing it does not
// predict is which siblings the controller prefetches: runCacheModel reads
// each Fetch's installs off the front of the real LRU and replays them.
type cacheModel struct {
	capacity, maxSuper int
	blockBytes         int
	lru, queue         []uint64
	dirty              map[uint64]bool
	data               map[uint64][]byte
	accesses           int
}

func (m *cacheModel) canFetch() bool { return 2*m.maxSuper-len(m.queue) >= m.maxSuper }

// install makes x the most recently used line: moved up if cached, taken
// back from the queue if queued, else new; evictions past capacity drop a
// clean line and queue a dirty one.
func (m *cacheModel) install(x uint64) {
	if i := slices.Index(m.lru, x); i >= 0 {
		m.lru = slices.Insert(slices.Delete(m.lru, i, i+1), 0, x)
		return
	}
	if i := slices.Index(m.queue, x); i >= 0 {
		m.queue = slices.Delete(m.queue, i, i+1)
	}
	m.lru = slices.Insert(m.lru, 0, x)
	for len(m.lru) > m.capacity {
		y := m.lru[len(m.lru)-1]
		m.lru = m.lru[:len(m.lru)-1]
		if m.dirty[y] {
			m.queue = append(m.queue, y)
		}
	}
}

func (m *cacheModel) resident(x uint64) bool {
	return slices.Contains(m.lru, x) || slices.Contains(m.queue, x)
}

func (m *cacheModel) lookup(x uint64) bool {
	if !m.resident(x) {
		return false
	}
	m.install(x)
	return true
}

func (m *cacheModel) drain() bool {
	if len(m.queue) == 0 {
		return false
	}
	delete(m.dirty, m.queue[0])
	m.queue = m.queue[1:]
	m.accesses++
	return true
}

func (m *cacheModel) flush() int {
	n := len(m.queue)
	for _, x := range m.queue {
		delete(m.dirty, x)
	}
	m.queue = nil
	for _, x := range m.lru {
		if m.dirty[x] {
			delete(m.dirty, x)
			n++
		}
	}
	m.accesses += n
	return n
}

func (m *cacheModel) want(x uint64) []byte {
	out := make([]byte, m.blockBytes)
	copy(out, m.data[x])
	return out
}

// lists reads the cache's one list back as the model's two: the LRU, most
// recent first, and the victim queue, oldest first.
func lists(c *Cache) (lru, queue []uint64) {
	inQueue := false
	for n := c.head; n != none; n = c.lines[n].next {
		inQueue = inQueue || n == c.queue
		if x := c.lines[n].index; inQueue {
			queue = append(queue, x)
		} else {
			lru = append(lru, x)
		}
	}
	slices.Reverse(queue)
	return lru, queue
}

// checkLines checks the slab's bookkeeping: the order list's links are
// symmetric and end at head and tail, every line number is in exactly one
// of the order list (LRU or queue) and the free list, the index table finds
// each resident block at its own line and no freed line, its count and its
// entries equal the lines resident, and the lines stay within their bound.
func checkLines(t *testing.T, step int, c *Cache) {
	t.Helper()
	seen := make([]string, len(c.lines))
	mark := func(n int32, where string) {
		if n < 0 || int(n) >= len(c.lines) {
			t.Fatalf("step %d: line %d in the %s, %d lines allocated", step, n, where, len(c.lines))
		}
		if seen[n] != "" {
			t.Fatalf("step %d: line %d in the %s and the %s", step, n, seen[n], where)
		}
		seen[n] = where
	}
	prev, resident := none, 0
	for n := c.head; n != none; prev, n = n, c.lines[n].next {
		mark(n, "order list")
		resident++
		if c.lines[n].prev != prev {
			t.Fatalf("step %d: line %d links back to %d, follows %d", step, n, c.lines[n].prev, prev)
		}
		if i := c.find(c.lines[n].index); i != n {
			t.Fatalf("step %d: line %d holds block %d, found at line %d", step, n, c.lines[n].index, i)
		}
	}
	if c.tail != prev {
		t.Fatalf("step %d: tail is line %d, the list ends at %d", step, c.tail, prev)
	}
	for n := c.free; n != none; n = c.lines[n].next {
		mark(n, "free list")
		if i := c.find(c.lines[n].index); i == n {
			t.Fatalf("step %d: freed line %d is found for block %d", step, n, c.lines[n].index)
		}
	}
	if slices.Contains(seen, "") {
		t.Fatalf("step %d: line %d is in no list", step, slices.Index(seen, ""))
	}
	entries := 0
	for _, n := range c.index {
		if n != none {
			entries++
		}
	}
	if c.indexed != resident || entries != resident || len(c.index) < 2*len(c.lines) {
		t.Fatalf("step %d: %d blocks indexed in %d of %d table slots, %d lines resident of %d",
			step, c.indexed, entries, len(c.index), resident, len(c.lines))
	}
	if limit := c.capacity + c.victimCap(); len(c.lines) > limit || len(c.slab) != len(c.lines)*c.blockBytes {
		t.Fatalf("step %d: %d lines and %d slab bytes, at most %d lines of %d bytes", step, len(c.lines), len(c.slab), limit, c.blockBytes)
	}
}

// TestCacheIndexChurn drives the index table through four doublings
// against a map, dropping random lines between inserts. Every other block
// inserted has its home in the table's last two slots, so probe runs wrap
// around the table's end and backward-shift deletion moves entries across
// it; the test counts the drops whose probe run wraps and wants some. After
// every step each indexed block is found at its line, no dropped block is
// found, and the table's count and entries equal the map's.
func TestCacheIndexChurn(t *testing.T) {
	c := newTestCache(t, 4, superblock.Config{Scheme: superblock.None, MaxSize: 1}, nil)
	r := rng.New(17)
	model := map[uint64]int32{}
	var keys, dropped []uint64 // the model's keys in insertion order, and those dropped since
	wraps := 0
	for step := 0; len(c.index) < 128; step++ {
		if len(keys) > 0 && r.Uint64n(20) < 9 {
			k := int(r.Uint64n(uint64(len(keys))))
			x := keys[k]
			keys = slices.Delete(keys, k, k+1)
			n := model[x]
			delete(model, x)
			i, mask := c.slot(x), len(c.index)-1
			for j := i; c.index[j] != none; j = (j + 1) & mask {
				if j == mask && c.index[0] != none {
					wraps++
					break
				}
			}
			c.unindex(i)
			c.release(n)
			dropped = append(dropped, x)
		} else {
			x := r.Uint64n(1 << 40)
			for step%2 == 0 && len(c.index) > 0 && c.home(x) < len(c.index)-2 {
				x = r.Uint64n(1 << 40)
			}
			if _, ok := model[x]; ok {
				continue
			}
			n := c.alloc()
			c.lines[n] = line{index: x}
			c.insert(n)
			model[x] = n
			keys = append(keys, x)
			dropped = slices.DeleteFunc(dropped, func(y uint64) bool { return y == x })
		}
		for _, x := range keys {
			if n := c.find(x); n != model[x] {
				t.Fatalf("step %d: block %d found at line %d, model %d", step, x, n, model[x])
			}
		}
		for _, x := range dropped {
			if n := c.find(x); n != none {
				t.Fatalf("step %d: dropped block %d found at line %d", step, x, n)
			}
		}
		entries := 0
		for _, n := range c.index {
			if n != none {
				entries++
			}
		}
		if c.indexed != len(model) || entries != len(model) {
			t.Fatalf("step %d: count %d, %d table entries, model %d", step, c.indexed, entries, len(model))
		}
	}
	if wraps < 10 {
		t.Fatalf("only %d drops had a probe run wrapping around the table's end", wraps)
	}
}

// checkCache compares the cache with the model after one step: the slab's
// bookkeeping, both lists in order, the line flags and the index, the
// capacities, every block's bytes wherever the block lives, and the
// accesses issued.
func checkCache(t *testing.T, step int, c *Cache, m *cacheModel, hooked int) {
	t.Helper()
	checkLines(t, step, c)
	lru, queue := lists(c)
	if !slices.Equal(lru, m.lru) || !slices.Equal(queue, m.queue) {
		t.Fatalf("step %d: LRU %v queue %v, model LRU %v queue %v", step, lru, queue, m.lru, m.queue)
	}
	if c.indexed != len(lru)+len(queue) || c.queued != len(queue) {
		t.Fatalf("step %d: %d indexed lines and %d counted queued, %d in the LRU and %d queued",
			step, c.indexed, c.queued, len(lru), len(queue))
	}
	for _, l := range [][]uint64{lru, queue} {
		for _, x := range l {
			line := c.lines[c.find(x)]
			inQueue := slices.Contains(queue, x)
			if slices.Contains(lru, x) && inQueue {
				t.Fatalf("step %d: block %d is in the LRU and the queue", step, x)
			}
			if line.queued != inQueue || line.dirty != m.dirty[x] {
				t.Fatalf("step %d: block %d queued=%v dirty=%v, model queued=%v dirty=%v",
					step, x, line.queued, line.dirty, inQueue, m.dirty[x])
			}
		}
	}
	if len(lru) > c.capacity || len(queue) > c.victimCap() {
		t.Fatalf("step %d: %d lines over capacity %d, %d queued over %d", step, len(lru), c.capacity, len(queue), c.victimCap())
	}
	for x := uint64(0); x < modelBlocks; x++ {
		var got []byte
		if n := c.find(x); n != none {
			got = c.payload(n)
		} else {
			var err error
			if got, err = c.store.Load(x); err != nil {
				t.Fatalf("step %d: block %d: %v", step, x, err)
			}
		}
		if want := m.want(x); !bytes.Equal(got, want) {
			t.Fatalf("step %d: block %d reads %x, model %x", step, x, got[:4], want[:4])
		}
	}
	s := c.store.Ctrl.Stats()
	if served := int(s.DemandReads + s.Writebacks); hooked != m.accesses || served != m.accesses {
		t.Fatalf("step %d: hook fired %d times, controller served %d accesses, model issued %d", step, hooked, served, m.accesses)
	}
}

// runCacheModel decodes data as a cache shape — a byte for MaxSuperBlock
// 1/2/4 and the scheme, a byte for the capacity, MaxSuperBlock…16 — and a
// sequence of two-byte operations (opcode, block), and runs it against the
// model with checkCache after every step.
func runCacheModel(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	maxSuper := 1 << (data[0] % 3)
	sb := superblock.Config{Scheme: superblock.None, MaxSize: 1}
	if maxSuper > 1 {
		sb = superblock.Config{Scheme: superblock.Static, MaxSize: maxSuper}
		if data[0]&4 == 0 {
			sb = superblock.DefaultConfig()
			sb.MaxSize = maxSuper
		}
	}
	capacity := maxSuper + int(data[1])%(17-maxSuper)
	hooked := 0
	c := newTestCache(t, capacity, sb, &hooked)
	m := &cacheModel{capacity: capacity, maxSuper: maxSuper, blockBytes: c.store.BlockBytes(),
		dirty: map[uint64]bool{}, data: map[uint64][]byte{}}

	fetch := func(step int, x uint64) (Line, bool) {
		can := m.canFetch()
		line, err := c.Fetch(x)
		if !can {
			if err != errVictimsFull || line != (Line{}) {
				t.Fatalf("step %d: Fetch(%d) with %d queued = %v, %v; want the full-queue refusal", step, x, len(m.queue), line, err)
			}
			return Line{}, false
		}
		if err != nil {
			t.Fatalf("step %d: Fetch(%d): %v", step, x, err)
		}
		// The installs are the front of the LRU down to the demand line,
		// which went in first.
		front, _ := lists(c)
		j := slices.Index(front, x)
		if got := c.lines[line.n].index; j < 0 || got != x {
			t.Fatalf("step %d: Fetch(%d) returned block %d; LRU %v", step, x, got, front)
		}
		m.accesses++
		m.install(x)
		for i := j - 1; i >= 0; i-- {
			if slices.Contains(m.lru, front[i]) {
				t.Fatalf("step %d: Fetch(%d) reinstalled cached sibling %d", step, x, front[i])
			}
			m.install(front[i])
		}
		return line, true
	}

	for step := 2; step+2 <= len(data); step += 2 {
		x := uint64(data[step+1]) % modelBlocks
		switch data[step] % 8 {
		case 0, 1:
			_, ok := c.Lookup(x)
			if hit := m.lookup(x); ok != hit {
				t.Fatalf("step %d: Lookup(%d) hit=%v, model %v", step, x, ok, hit)
			}
		case 2:
			fetch(step, x)
		case 3, 4, 5:
			line, ok := c.Lookup(x)
			if hit := m.lookup(x); ok != hit {
				t.Fatalf("step %d: Lookup(%d) hit=%v, model %v", step, x, ok, hit)
			}
			if !ok {
				line, ok = fetch(step, x)
			}
			if ok {
				payload := []byte{byte(step), byte(step >> 8), byte(x), 0xA5}
				line.Set(payload)
				m.data[x] = payload
				m.dirty[x] = true
			}
		case 6:
			wrote, err := c.Drain()
			if want := m.drain(); wrote != want || err != nil {
				t.Fatalf("step %d: Drain = %v, %v; model %v", step, wrote, err, want)
			}
		case 7:
			written, failed, err := c.Flush()
			if want := m.flush(); written != want || failed != 0 || err != nil {
				t.Fatalf("step %d: Flush = %d written, %d failed, %v; model %d", step, written, failed, err, want)
			}
		}
		checkCache(t, step, c, m, hooked)
	}
}

// cacheModelOps draws a random operation sequence for a given shape.
func cacheModelOps(seed uint64, shape, capacity byte, n int) []byte {
	r := rng.New(seed)
	out := []byte{shape, capacity}
	for range n {
		out = append(out, byte(r.Uint64n(256)), byte(r.Uint64n(modelBlocks)))
	}
	return out
}

// TestCacheAgainstModel runs seeded sequences over every MaxSuperBlock and
// scheme, at the smallest and a roomier capacity.
func TestCacheAgainstModel(t *testing.T) {
	for _, shape := range []byte{0, 1, 2, 4, 5} {
		for _, capacity := range []byte{0, 6} {
			runCacheModel(t, cacheModelOps(uint64(shape)<<8|uint64(capacity), shape, capacity, 600))
		}
	}
}

// FuzzCacheAgainstModel is the same check over fuzzer-chosen sequences.
// The corpus under testdata/fuzz/FuzzCacheAgainstModel re-reads a queued
// dirty line, fetches one directly, and installs a sibling that is queued.
func FuzzCacheAgainstModel(f *testing.F) {
	f.Add([]byte{})
	f.Add(cacheModelOps(1, 5, 3, 300)) // static super blocks of 4, seven lines
	f.Add(cacheModelOps(2, 1, 0, 300)) // dynamic, two lines
	f.Fuzz(runCacheModel)
}

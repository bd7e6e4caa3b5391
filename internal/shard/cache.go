package shard

import (
	"errors"
	"fmt"
	"math/bits"
)

// none is the null line number: the end of a list, an empty queue or free
// list.
const none int32 = -1

// line is one cache line's metadata. Its payload is window n of the
// cache's slab, n being the line's position in Cache.lines; the two are
// kept apart so that the plaintext shares no struct with the bookkeeping.
type line struct {
	index      uint64
	prev, next int32 // the order list's neighbours (next also links the free list)
	dirty      bool
	prefetched bool
	used       bool
	queued     bool // evicted dirty, waiting in the victim queue
}

// Line is one plaintext block in a Cache: a line number, valid while its
// block stays resident (until a Drain or clean eviction lets the number be
// reused).
type Line struct {
	c *Cache
	n int32
}

// Bytes returns a fresh copy of the block's plaintext.
func (l Line) Bytes() []byte {
	data := l.c.payload(l.n)
	out := make([]byte, len(data))
	copy(out, data)
	return out
}

// Set overwrites the block with data, zero-padded, and marks it dirty.
func (l Line) Set(data []byte) {
	p := l.c.payload(l.n)
	clear(p)
	copy(p, data)
	l.c.lines[l.n].dirty = true
}

// errVictimsFull is Fetch's refusal when the victim queue cannot take the
// dirty lines one more miss may evict.
var errVictimsFull = errors.New("shard: victim queue cannot take another miss's evictions")

// Cache is the client-side plaintext block cache over one Store: the LLC
// stand-in the merge algorithm probes and prefetched siblings install
// into. Strict LRU, write-back. The unified proram.RAM owns one, every
// partition owns one; like its Store it is not safe for concurrent use.
//
// A dirty line the LRU evicts is not written back inline: it joins a
// bounded victim queue, and Drain writes the queue back, oldest first, one
// ORAM access per call — so a miss costs exactly one access, and its
// eviction work runs wherever the owner has an access to spare. A queued
// line is still its block's only current copy: Present reports it, Lookup
// and Fetch take it back instead of loading the block's stale ciphertext.
//
// Lines live in two slices indexed by line number, metadata in lines and
// plaintext in slab, which grow together by one line per install that
// finds the free list empty and never shrink. The cache never holds more
// than capacity+victimCap() lines, so that is also the most the slices
// reach; an unused capacity costs nothing. The index from block to line is
// an open-addressed table of line numbers (Fibonacci hashing, linear
// probing and backward-shift deletion, as in posmap.PLB). It doubles
// whenever the lines reach half its size, so it grows with the lines,
// never with the capacity, and a probe stays short.
type Cache struct {
	store      *Store
	capacity   int
	maxSuper   int // the controller's MaxSuperBlock: the most installs one Fetch makes
	blockBytes int
	onAccess   func()
	index      []int32 // line number of every resident block by table slot, or none
	shift      uint    // 64 - log2(len(index)): a hash's top bits pick its slot
	indexed    int     // resident lines: the table's entries
	lines      []line
	slab       []byte // plaintext: line n owns slab[n*blockBytes:(n+1)*blockBytes]
	// head..tail is the order list of every resident line: the cached
	// ones, most recently used first, then the victim queue, newest first.
	// The LRU's tail and the queue's newest entry are neighbours, so
	// queueing a victim moves no line, only the boundary.
	head, tail int32
	queue      int32 // the newest queued line; none when the queue is empty
	queued     int
	free       int32 // lines no block holds, linked through next
}

// NewCache binds a cache of capacity blocks to store and installs it as the
// controller's LLC probe. The capacity must cover the controller's largest
// super block: a demand line is installed ahead of its prefetched
// siblings, and with fewer lines than that their installs would evict it
// before the caller's write reached it. onAccess, when non-nil, runs once
// after every ORAM access the cache issues (the partitions' slot marks).
func NewCache(store *Store, capacity int, onAccess func()) (*Cache, error) {
	sb := store.Ctrl.MaxSuperBlock()
	if capacity < sb {
		return nil, fmt.Errorf("shard: client cache of %d blocks cannot hold a super block of MaxSuperBlock %d", capacity, sb)
	}
	c := &Cache{
		store:      store,
		capacity:   capacity,
		maxSuper:   sb,
		blockBytes: store.BlockBytes(),
		onAccess:   onAccess,
		head:       none,
		tail:       none,
		queue:      none,
		free:       none,
	}
	store.Ctrl.SetProber(c)
	return c, nil
}

// victimCap is the victim queue's capacity: two misses' worst case. Fetch
// needs room for one (each of its at most MaxSuperBlock installs evicts at
// most one line), so one miss can always follow another with no drain
// between them.
func (c *Cache) victimCap() int { return 2 * c.maxSuper }

// canFetch reports whether the victim queue has room for the dirty lines a
// Fetch may evict. Fetch refuses otherwise; Drain makes room. With the LRU
// at most capacity long, room in the queue is also room in the line budget
// of capacity+victimCap(): at least MaxSuperBlock lines are free, so each
// of a Fetch's installs opens its block into a free line before it evicts.
func (c *Cache) canFetch() bool { return c.victimCap()-c.queued >= c.maxSuper }

// Present implements oram.CacheProber, letting the merge algorithm probe
// for co-resident blocks. A queued victim is resident: it is the block's
// current copy, still held on the client.
func (c *Cache) Present(index uint64) bool { return c.find(index) != none }

// Lookup returns the cached line of index; ok is false on a miss. A hit
// costs no ORAM access: it refreshes the line's LRU position — taking it
// back out of the victim queue if it was there — and reports the first use
// of a prefetched line to the controller.
func (c *Cache) Lookup(index uint64) (Line, bool) {
	n := c.find(index)
	if n == none {
		return Line{}, false
	}
	c.touch(n)
	if l := &c.lines[n]; l.prefetched && !l.used {
		l.used = true
		c.store.Ctrl.NotifyPrefetchUse(l.index)
	}
	return Line{c, n}, true
}

// Fetch misses into the ORAM: one full recursive read of index, then an
// install of it and of every prefetched sibling not yet cached. The read
// is the only ORAM access it issues; the dirty lines its installs evict
// join the victim queue for Drain. A block whose line is queued is taken
// back from the queue, never loaded: its sealed copy is stale. A sibling
// that fails to open only loses the prefetch; a corrupt demand block fails
// the fetch after its access. Without room in the queue (canFetch) Fetch
// refuses before issuing anything.
func (c *Cache) Fetch(index uint64) (Line, error) {
	if !c.canFetch() {
		return Line{}, errVictimsFull
	}
	res := c.store.DemandRead(index)
	c.accessed()
	demand, ok := c.Lookup(index)
	if !ok {
		n, err := c.install(index, false)
		if err != nil {
			return Line{}, err
		}
		demand = Line{c, n}
	}
	for _, p := range res.Prefetched {
		if n := c.find(p); n != none {
			if c.lines[n].queued {
				c.touch(n)
			}
			continue
		}
		// The demand line is in; a corrupt sibling only loses the prefetch.
		_, _ = c.install(p, true)
	}
	return demand, nil
}

// install opens block index into a free line, makes it the most recently
// used and trims the LRU. A block that fails to open hands its line
// straight back: the cache is as it was.
func (c *Cache) install(index uint64, prefetched bool) (int32, error) {
	n := c.alloc()
	if err := c.store.LoadInto(c.payload(n), index); err != nil {
		c.release(n)
		return none, err
	}
	c.lines[n] = line{index: index, prefetched: prefetched}
	c.insert(n)
	c.link(n, none, c.head)
	c.evict()
	return n, nil
}

// alloc takes a line off the free list, or grows lines and slab by one.
// canFetch bounds the growth at capacity+victimCap() lines. Line numbers
// are int32: 2^31 lines would be 48 GB of metadata before any slab.
func (c *Cache) alloc() int32 {
	if n := c.free; n != none {
		c.free = c.lines[n].next
		return n
	}
	c.lines = append(c.lines, line{})
	c.slab = append(c.slab, make([]byte, c.blockBytes)...)
	if 2*len(c.lines) > len(c.index) {
		c.grow()
	}
	return int32(len(c.lines) - 1)
}

// grow doubles the index table (to 8 slots at first) and reinserts every
// resident line.
func (c *Cache) grow() {
	old := c.index
	logSize := max(bits.Len(uint(len(old))), 3)
	c.index = make([]int32, 1<<logSize)
	for i := range c.index {
		c.index[i] = none
	}
	c.shift = 64 - uint(logSize)
	for _, n := range old {
		if n != none {
			c.index[c.slot(c.lines[n].index)] = n
		}
	}
}

// home is block index x's first table slot (Fibonacci hashing).
func (c *Cache) home(x uint64) int { return int(x * 0x9e3779b97f4a7c15 >> c.shift) }

// slot returns the table slot that holds block x's line, or the empty slot
// that ends its probe sequence.
func (c *Cache) slot(x uint64) int {
	mask := len(c.index) - 1
	i := c.home(x)
	for c.index[i] != none && c.lines[c.index[i]].index != x {
		i = (i + 1) & mask
	}
	return i
}

// find returns the line of block x, or none.
func (c *Cache) find(x uint64) int32 {
	if c.indexed == 0 {
		return none
	}
	return c.index[c.slot(x)]
}

// insert indexes line n under its block, which no resident line holds.
func (c *Cache) insert(n int32) {
	c.index[c.slot(c.lines[n].index)] = n
	c.indexed++
}

// unindex empties table slot i and moves back every later entry of its
// probe run that may not stay behind the hole (backward-shift deletion),
// so no tombstone ever lengthens a probe.
func (c *Cache) unindex(i int) {
	mask := len(c.index) - 1
	for j := (i + 1) & mask; c.index[j] != none; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-c.home(c.lines[c.index[j]].index))&mask >= (j-i)&mask {
			c.index[i], i = c.index[j], j
		}
	}
	c.index[i] = none
	c.indexed--
}

// release puts an unlinked, unindexed line on the free list.
func (c *Cache) release(n int32) {
	c.lines[n].next = c.free
	c.free = n
}

// payload is line n's window of the slab, capped so that no append through
// it reaches the next line.
func (c *Cache) payload(n int32) []byte {
	off := int(n) * c.blockBytes
	return c.slab[off : off+c.blockBytes : off+c.blockBytes]
}

// link puts line n into the order list between prev and next, either of
// which may be none (an end of the list).
func (c *Cache) link(n, prev, next int32) {
	c.lines[n].prev, c.lines[n].next = prev, next
	if prev == none {
		c.head = n
	} else {
		c.lines[prev].next = n
	}
	if next == none {
		c.tail = n
	} else {
		c.lines[next].prev = n
	}
}

// unlink takes line n out of the order list.
func (c *Cache) unlink(n int32) {
	prev, next := c.lines[n].prev, c.lines[n].next
	if prev == none {
		c.head = next
	} else {
		c.lines[prev].next = next
	}
	if next == none {
		c.tail = prev
	} else {
		c.lines[next].prev = prev
	}
}

// touch makes a resident line the most recently used, taking it back out
// of the victim queue if it was queued.
func (c *Cache) touch(n int32) {
	if l := &c.lines[n]; l.queued {
		if n == c.queue {
			c.queue = l.next // the next newest, or none: n was the queue's last line
		}
		l.queued = false
		c.queued--
	}
	c.unlink(n)
	c.link(n, none, c.head)
	c.evict()
}

// evict trims the LRU to capacity from its tail: a clean victim is
// dropped, a dirty one becomes the victim queue's newest line.
func (c *Cache) evict() {
	for c.indexed-c.queued > c.capacity {
		n := c.tail
		if c.queue != none {
			n = c.lines[c.queue].prev
		}
		victim := &c.lines[n]
		if victim.prefetched && !victim.used {
			c.store.Ctrl.NotifyPrefetchEvict(victim.index)
		}
		if !victim.dirty {
			c.drop(n)
			continue
		}
		victim.queued = true
		c.queue = n
		c.queued++
	}
}

// drop takes a resident line out of the cache and frees it.
func (c *Cache) drop(n int32) {
	c.unlink(n)
	c.unindex(c.slot(c.lines[n].index))
	c.release(n)
}

// Drain writes the oldest queued victim back: one ORAM access, then the
// line leaves the cache. It reports whether it wrote one (false on an
// empty queue). A victim whose write-back fails issues no access and
// stays queued, as the newest, so the next Drain tries the next one. Drain
// is the only writer of queued lines.
func (c *Cache) Drain() (bool, error) {
	if c.queue == none {
		return false, nil
	}
	n := c.tail
	if err := c.store.WriteBack(c.lines[n].index, c.payload(n)); err != nil {
		if n != c.queue {
			c.unlink(n)
			c.link(n, c.lines[c.queue].prev, c.queue)
			c.queue = n
		}
		return false, err
	}
	c.accessed()
	if n == c.queue {
		c.queue = none
	}
	c.drop(n)
	c.queued--
	return true, nil
}

// Flush drains the victim queue, then writes every dirty line back, most
// recently used first, and leaves the lines cached and clean. A line that
// fails to write back stays dirty (or queued) and is counted; the flush
// goes on and reports the first such error.
func (c *Cache) Flush() (written, failed int, err error) {
	note := func(werr error) {
		failed++
		if err == nil {
			err = werr
		}
	}
	for range c.queued {
		if _, werr := c.Drain(); werr != nil {
			note(werr)
			continue
		}
		written++
	}
	for n := c.head; n != none && n != c.queue; n = c.lines[n].next {
		l := &c.lines[n]
		if !l.dirty {
			continue
		}
		if werr := c.store.WriteBack(l.index, c.payload(n)); werr != nil {
			note(werr)
			continue
		}
		c.accessed()
		l.dirty = false
		written++
	}
	return written, failed, err
}

// accessed reports one issued ORAM access to the owner's hook.
func (c *Cache) accessed() {
	if c.onAccess != nil {
		c.onAccess()
	}
}

package shard

import (
	"container/list"
	"errors"
	"fmt"
)

// Line is one plaintext block in a Cache.
type Line struct {
	index      uint64
	data       []byte
	dirty      bool
	prefetched bool
	used       bool
	queued     bool // evicted dirty, waiting in the victim queue
}

// Bytes returns a fresh copy of the block's plaintext.
func (l *Line) Bytes() []byte {
	out := make([]byte, len(l.data))
	copy(out, l.data)
	return out
}

// Set overwrites the block with data, zero-padded, and marks it dirty.
func (l *Line) Set(data []byte) {
	clear(l.data)
	copy(l.data, data)
	l.dirty = true
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
type Cache struct {
	store    *Store
	capacity int
	maxSuper int // the controller's MaxSuperBlock: the most installs one Fetch makes
	onAccess func()
	lines    map[uint64]*list.Element // block index -> *Line element in order
	// order holds every resident line: the cached ones, most recently used
	// first, then the victim queue, newest first. The LRU's tail and the
	// queue's newest entry are neighbours, so queueing a victim moves no
	// element, only the boundary.
	order  *list.List
	queue  *list.Element // the newest queued line; nil when the queue is empty
	queued int
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
		store:    store,
		capacity: capacity,
		maxSuper: sb,
		onAccess: onAccess,
		lines:    make(map[uint64]*list.Element),
		order:    list.New(),
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
// Fetch may evict. Fetch refuses otherwise; Drain makes room.
func (c *Cache) canFetch() bool { return c.victimCap()-c.queued >= c.maxSuper }

// Present implements oram.CacheProber, letting the merge algorithm probe
// for co-resident blocks. A queued victim is resident: it is the block's
// current copy, still held on the client.
//
//proram:hotpath probed once per super-block candidate on every dynamic merge
func (c *Cache) Present(index uint64) bool {
	_, ok := c.lines[index]
	return ok
}

// Lookup returns the cached line of index, or nil on a miss. A hit costs
// no ORAM access: it refreshes the line's LRU position — taking it back
// out of the victim queue if it was there — and reports the first use of a
// prefetched line to the controller.
func (c *Cache) Lookup(index uint64) *Line {
	e, ok := c.lines[index]
	if !ok {
		return nil
	}
	line := e.Value.(*Line)
	c.touch(e)
	if line.prefetched && !line.used {
		line.used = true
		c.store.Ctrl.NotifyPrefetchUse(line.index)
	}
	return line
}

// Fetch misses into the ORAM: one full recursive read of index, then an
// install of it and of every prefetched sibling not yet cached. The read
// is the only ORAM access it issues; the dirty lines its installs evict
// join the victim queue for Drain. A block whose line is queued is taken
// back from the queue, never loaded: its sealed copy is stale. A sibling
// that fails to open only loses the prefetch; a corrupt demand block fails
// the fetch after its access. Without room in the queue (canFetch) Fetch
// refuses before issuing anything.
func (c *Cache) Fetch(index uint64) (*Line, error) {
	if !c.canFetch() {
		return nil, errVictimsFull
	}
	res := c.store.DemandRead(index)
	c.accessed()
	line := c.Lookup(index)
	if line == nil {
		data, err := c.store.Load(index)
		if err != nil {
			return nil, err
		}
		line = &Line{index: index, data: data}
		c.insert(line)
	}
	for _, p := range res.Prefetched {
		if e, ok := c.lines[p]; ok {
			if e.Value.(*Line).queued {
				c.touch(e)
			}
			continue
		}
		data, err := c.store.Load(p)
		if err != nil {
			continue // the demand line is in; a corrupt sibling only loses the prefetch
		}
		c.insert(&Line{index: p, data: data, prefetched: true})
	}
	return line, nil
}

// touch makes a resident line the most recently used, taking it back out
// of the victim queue if it was queued.
func (c *Cache) touch(e *list.Element) {
	line := e.Value.(*Line)
	if line.queued {
		if e == c.queue {
			c.queue = e.Next() // the next newest, or nil: e was the queue's last line
		}
		line.queued = false
		c.queued--
	}
	c.order.MoveToFront(e)
	c.evict()
}

// insert makes a new line the most recently used.
func (c *Cache) insert(line *Line) {
	c.lines[line.index] = c.order.PushFront(line)
	c.evict()
}

// evict trims the LRU to capacity from its tail: a clean victim is
// dropped, a dirty one becomes the victim queue's newest line.
func (c *Cache) evict() {
	for c.order.Len()-c.queued > c.capacity {
		tail := c.order.Back()
		if c.queue != nil {
			tail = c.queue.Prev()
		}
		victim := tail.Value.(*Line)
		if victim.prefetched && !victim.used {
			c.store.Ctrl.NotifyPrefetchEvict(victim.index)
		}
		if !victim.dirty {
			c.order.Remove(tail)
			delete(c.lines, victim.index)
			continue
		}
		victim.queued = true
		c.queue = tail
		c.queued++
	}
}

// Drain writes the oldest queued victim back: one ORAM access, then the
// line leaves the cache. It reports whether it wrote one (false on an
// empty queue). A victim whose write-back fails issues no access and
// stays queued, as the newest, so the next Drain tries the next one. Drain
// is the only writer of queued lines.
func (c *Cache) Drain() (bool, error) {
	if c.queue == nil {
		return false, nil
	}
	e := c.order.Back()
	line := e.Value.(*Line)
	if err := c.store.WriteBack(line.index, line.data); err != nil {
		if e != c.queue {
			c.order.MoveBefore(e, c.queue)
			c.queue = e
		}
		return false, err
	}
	c.accessed()
	if e == c.queue {
		c.queue = nil
	}
	c.order.Remove(e)
	delete(c.lines, line.index)
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
	for e := c.order.Front(); e != nil && e != c.queue; e = e.Next() {
		line := e.Value.(*Line)
		if !line.dirty {
			continue
		}
		if werr := c.store.WriteBack(line.index, line.data); werr != nil {
			note(werr)
			continue
		}
		c.accessed()
		line.dirty = false
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

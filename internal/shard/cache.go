package shard

import (
	"container/list"
	"fmt"
)

// Line is one plaintext block in a Cache.
type Line struct {
	index      uint64
	data       []byte
	dirty      bool
	prefetched bool
	used       bool
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

// Cache is the client-side plaintext block cache over one Store: the LLC
// stand-in the merge algorithm probes and prefetched siblings install
// into. Strict LRU, write-back. The unified proram.RAM owns one, every
// partition owns one; like its Store it is not safe for concurrent use.
type Cache struct {
	store    *Store
	capacity int
	onAccess func()
	lines    map[uint64]*list.Element // block index -> *Line element
	lru      *list.List               // most recently used first
}

// NewCache binds a cache of capacity blocks to store and installs it as the
// controller's LLC probe. The capacity must cover the controller's largest
// super block: a demand line is installed ahead of its prefetched
// siblings, and with fewer lines than that their installs would evict it
// before the caller's write reached it. onAccess, when non-nil, runs once
// after every ORAM access the cache issues (the partitions' slot marks).
func NewCache(store *Store, capacity int, onAccess func()) (*Cache, error) {
	if sb := store.Ctrl.MaxSuperBlock(); capacity < sb {
		return nil, fmt.Errorf("shard: client cache of %d blocks cannot hold a super block of MaxSuperBlock %d", capacity, sb)
	}
	c := &Cache{
		store:    store,
		capacity: capacity,
		onAccess: onAccess,
		lines:    make(map[uint64]*list.Element),
		lru:      list.New(),
	}
	store.Ctrl.SetProber(c)
	return c, nil
}

// Present implements oram.CacheProber, letting the merge algorithm probe
// for co-resident blocks.
//
//proram:hotpath probed once per super-block candidate on every dynamic merge
func (c *Cache) Present(index uint64) bool {
	_, ok := c.lines[index]
	return ok
}

// Lookup returns the cached line of index, or nil on a miss. A hit costs
// no ORAM access: it refreshes the line's LRU position and reports the
// first use of a prefetched line to the controller.
func (c *Cache) Lookup(index uint64) *Line {
	e, ok := c.lines[index]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(e)
	line := e.Value.(*Line)
	if line.prefetched && !line.used {
		line.used = true
		c.store.Ctrl.NotifyPrefetchUse(line.index)
	}
	return line
}

// Fetch misses into the ORAM: one full recursive read of index, then an
// install of it and of every prefetched sibling not yet cached, each
// followed by the write-backs of the dirty lines it pushes out. It returns
// the demand line and the ORAM accesses spent. A sibling that fails to
// open only loses the prefetch; a corrupt demand block or a failed victim
// write-back fails the fetch.
func (c *Cache) Fetch(index uint64) (*Line, int, error) {
	res := c.store.DemandRead(index)
	c.accessed()
	data, err := c.store.Load(index)
	if err != nil {
		return nil, 1, err
	}
	line := &Line{index: index, data: data}
	spent, err := c.insert(line)
	spent++
	if err != nil {
		return nil, spent, err
	}
	for _, p := range res.Prefetched {
		if c.Present(p) {
			continue
		}
		data, err := c.store.Load(p)
		if err != nil {
			continue // the demand line is in; a corrupt sibling only loses the prefetch
		}
		n, err := c.insert(&Line{index: p, data: data, prefetched: true})
		spent += n
		if err != nil {
			return nil, spent, err
		}
	}
	return line, spent, nil
}

// insert makes line the most recently used and evicts from the LRU end
// past capacity, writing dirty victims back. It returns the ORAM accesses
// spent: 0 for a clean victim, 1 for a dirty one.
func (c *Cache) insert(line *Line) (int, error) {
	c.lines[line.index] = c.lru.PushFront(line)
	spent := 0
	for c.lru.Len() > c.capacity {
		victim := c.lru.Remove(c.lru.Back()).(*Line)
		delete(c.lines, victim.index)
		if victim.prefetched && !victim.used {
			c.store.Ctrl.NotifyPrefetchEvict(victim.index)
		}
		if !victim.dirty {
			continue
		}
		if err := c.store.WriteBack(victim.index, victim.data); err != nil {
			return spent, err
		}
		c.accessed()
		spent++
	}
	return spent, nil
}

// Flush writes every dirty line back, most recently used first, and
// leaves the lines cached and clean. A line that fails to write back
// stays dirty and is counted; the flush goes on and reports the first
// such error.
func (c *Cache) Flush() (written, failed int, err error) {
	for e := c.lru.Front(); e != nil; e = e.Next() {
		line := e.Value.(*Line)
		if !line.dirty {
			continue
		}
		if werr := c.store.WriteBack(line.index, line.data); werr != nil {
			failed++
			if err == nil {
				err = werr
			}
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

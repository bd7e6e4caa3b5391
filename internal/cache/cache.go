// Package cache models the processor's cache hierarchy: a private L1 data
// cache and a shared L2 (the LLC) as in the paper's Table 1, both
// set-associative with LRU replacement, operating on block indices (one
// cache line = one ORAM basic block).
//
// LLC lines carry the prefetched/used flags the PrORAM schemes need: the
// hierarchy reports when a prefetched line is used for the first time and
// when one is evicted unused, and exposes the tag-array probe the merge
// algorithm uses (paper §4.5.2).
package cache

import "fmt"

// Config sizes one cache level.
type Config struct {
	SizeBytes int // total capacity
	Ways      int // associativity
	LineBytes int // line size (= ORAM block size)
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache: all dimensions must be positive: %+v", c)
	}
	// Compared by division: ways*line can overflow to zero.
	if c.LineBytes > c.SizeBytes/c.Ways {
		return fmt.Errorf("cache: %d ways of %d-byte lines exceed size %d", c.Ways, c.LineBytes, c.SizeBytes)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("cache: size %d not divisible by ways*line (%d*%d)", c.SizeBytes, c.Ways, c.LineBytes)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	return nil
}

// line is one cache line; lines are identified by block index.
type line struct {
	index      uint64
	valid      bool
	dirty      bool
	prefetched bool // inserted by a prefetch
	used       bool // prefetched line later referenced by the core
}

// Victim describes an evicted line.
type Victim struct {
	Index      uint64
	Valid      bool
	Dirty      bool
	Prefetched bool
	Used       bool
}

// Cache is one set-associative level. The zero value is unusable;
// construct with New.
type Cache struct {
	cfg  Config
	sets [][]line // each set is LRU-ordered: front = MRU
	mask uint64
	hits uint64
	miss uint64
}

// New builds an empty cache.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		//proram:invariant configuration errors are programming errors; public entry points run Config.Validate before construction
		panic(err)
	}
	n := cfg.Sets()
	sets := make([][]line, n)
	backing := make([]line, n*cfg.Ways)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	return &Cache{cfg: cfg, sets: sets, mask: uint64(n - 1)}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Hits and Misses expose the access statistics.
func (c *Cache) Hits() uint64   { return c.hits }
func (c *Cache) Misses() uint64 { return c.miss }

func (c *Cache) set(index uint64) []line { return c.sets[index&c.mask] }

// find returns the way holding index, or -1.
func (c *Cache) find(set []line, index uint64) int {
	for w := range set {
		if set[w].valid && set[w].index == index {
			return w
		}
	}
	return -1
}

// promote moves way w to the MRU position.
func promote(set []line, w int) {
	l := set[w]
	copy(set[1:w+1], set[:w])
	set[0] = l
}

// Access looks index up, promoting on hit and optionally setting the dirty
// bit. It reports whether it hit and whether this was the first use of a
// prefetched line.
func (c *Cache) Access(index uint64, write bool) (hit, prefetchFirstUse bool) {
	set := c.set(index)
	w := c.find(set, index)
	if w < 0 {
		c.miss++
		return false, false
	}
	c.hits++
	if write {
		set[w].dirty = true
	}
	if set[w].prefetched && !set[w].used {
		set[w].used = true
		prefetchFirstUse = true
	}
	promote(set, w)
	return true, prefetchFirstUse
}

// Probe reports presence without promoting or counting — the tag-array
// lookup the merge algorithm performs off the critical path.
func (c *Cache) Probe(index uint64) bool {
	return c.find(c.set(index), index) >= 0
}

// Insert places index at the MRU position, evicting the LRU line if the
// set is full. If the line is already present its flags are merged
// (dirty |= dirty; a demand insert clears prefetched status).
func (c *Cache) Insert(index uint64, dirty, prefetched bool) Victim {
	set := c.set(index)
	if w := c.find(set, index); w >= 0 {
		set[w].dirty = set[w].dirty || dirty
		if !prefetched {
			// A demand fill of an already-present line ends its prefetch
			// episode: it clearly got used.
			if set[w].prefetched && !set[w].used {
				set[w].used = true
			}
		}
		promote(set, w)
		return Victim{}
	}
	// Use an invalid way if any.
	victimWay := len(set) - 1
	for w := range set {
		if !set[w].valid {
			victimWay = w
			break
		}
	}
	v := Victim{}
	if set[victimWay].valid {
		old := set[victimWay]
		v = Victim{Index: old.index, Valid: true, Dirty: old.dirty,
			Prefetched: old.prefetched, Used: old.used}
	}
	set[victimWay] = line{index: index, valid: true, dirty: dirty, prefetched: prefetched}
	promote(set, victimWay)
	return v
}

// Invalidate removes index, returning its state (for inclusive back-
// invalidation: the L1 copy's dirty bit must be folded into the L2 victim).
func (c *Cache) Invalidate(index uint64) Victim {
	set := c.set(index)
	w := c.find(set, index)
	if w < 0 {
		return Victim{}
	}
	l := set[w]
	set[w].valid = false
	return Victim{Index: l.index, Valid: true, Dirty: l.dirty,
		Prefetched: l.prefetched, Used: l.used}
}

// Flush invalidates everything, returning a victim for every valid line
// (callers filter for dirty or prefetched-unused lines as needed).
func (c *Cache) Flush() []Victim {
	var out []Victim
	for s := range c.sets {
		for w := range c.sets[s] {
			l := &c.sets[s][w]
			if l.valid {
				out = append(out, Victim{Index: l.index, Valid: true, Dirty: l.dirty,
					Prefetched: l.prefetched, Used: l.used})
				l.valid = false
			}
		}
	}
	return out
}

// Len returns the number of valid lines (diagnostics).
func (c *Cache) Len() int {
	n := 0
	for s := range c.sets {
		for w := range c.sets[s] {
			if c.sets[s][w].valid {
				n++
			}
		}
	}
	return n
}

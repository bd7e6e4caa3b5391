package shard

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"proram/internal/oram"
	"proram/internal/rng"
	"proram/internal/seal"
	"proram/internal/superblock"
)

const cacheNonceSeed = 11

// newTestCache builds a cache of capacity lines over a real small Store:
// 1024 blocks of 64 bytes under the given super block scheme. *accesses,
// when non-nil, counts the per-access hook.
func newTestCache(t *testing.T, capacity int, sb superblock.Config, accesses *int) *Cache {
	t.Helper()
	o := oram.DefaultConfig()
	o.NumBlocks = 1 << 10
	o.BlockBytes = 64
	o.OnChipEntries = 64
	o.PLBBlocks = 8
	o.Super = sb
	ctrl, err := oram.New(o)
	if err != nil {
		t.Fatal(err)
	}
	sealer, err := seal.New(testKey, rng.NewReader(cacheNonceSeed))
	if err != nil {
		t.Fatal(err)
	}
	var hook func()
	if accesses != nil {
		hook = func() { *accesses++ }
	}
	c, err := NewCache(NewStore(ctrl, sealer, o.BlockBytes), capacity, hook)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var noSuperBlocks = superblock.Config{Scheme: superblock.None, MaxSize: 1}

// mustFetch misses index into the cache and returns the line.
func mustFetch(t *testing.T, c *Cache, index uint64) *Line {
	t.Helper()
	if c.Present(index) {
		t.Fatalf("block %d already cached", index)
	}
	line, err := c.Fetch(index)
	if err != nil {
		t.Fatalf("Fetch(%d): %v", index, err)
	}
	return line
}

// drainAll writes the whole victim queue back and returns how many lines
// it wrote.
func drainAll(t *testing.T, c *Cache) int {
	t.Helper()
	n := 0
	for {
		wrote, err := c.Drain()
		if err != nil {
			t.Fatal(err)
		}
		if !wrote {
			return n
		}
		n++
	}
}

func TestCacheStrictLRU(t *testing.T) {
	c := newTestCache(t, 4, noSuperBlocks, nil)
	for i := uint64(0); i < 4; i++ {
		mustFetch(t, c, i)
	}
	if c.Lookup(9) != nil {
		t.Fatal("Lookup hit an uncached block")
	}
	// Touching 0 makes 1 the least recently used; Present must not touch.
	if c.Lookup(0) == nil || !c.Present(1) {
		t.Fatal("resident blocks missing")
	}
	for i, victim := range []uint64{1, 2, 3, 0} {
		mustFetch(t, c, uint64(4+i))
		if c.Present(victim) {
			t.Fatalf("insert %d did not evict block %d", i, victim)
		}
		if c.order.Len() != 4 || len(c.lines) != 4 {
			t.Fatalf("cache holds %d/%d lines, capacity 4", c.order.Len(), len(c.lines))
		}
	}
}

// TestCacheVictimCost: a miss costs one access whatever it evicts; a dirty
// victim waits in the queue, still resident, until a Drain spends the
// second access on it.
func TestCacheVictimCost(t *testing.T) {
	hooked := 0
	c := newTestCache(t, 2, noSuperBlocks, &hooked)
	mustFetch(t, c, 0)
	line := mustFetch(t, c, 1)
	mustFetch(t, c, 2)
	if hooked != 3 || c.queued != 0 || c.Present(0) {
		t.Fatalf("three misses over a clean victim: %d accesses, %d queued, victim cached=%v; want 3, 0, false",
			hooked, c.queued, c.Present(0))
	}
	line.Set([]byte("dirty"))
	mustFetch(t, c, 3)
	if hooked != 4 || c.queued != 1 || !c.Present(1) {
		t.Fatalf("miss over a dirty victim: %d accesses, %d queued, victim present=%v; want 4, 1, true",
			hooked, c.queued, c.Present(1))
	}
	if got := c.store.Ctrl.Stats().Writebacks; got != 0 {
		t.Fatalf("controller saw %d write-backs before any drain", got)
	}
	if n := drainAll(t, c); n != 1 || hooked != 5 || c.Present(1) {
		t.Fatalf("drain wrote %d lines in %d accesses in all, victim present=%v; want 1, 5, false", n, hooked, c.Present(1))
	}
	if got := c.store.Ctrl.Stats().Writebacks; got != 1 {
		t.Fatalf("controller saw %d write-backs, want 1", got)
	}
	// The victim's bytes went through the store, zero-padded.
	back := mustFetch(t, c, 1)
	want := make([]byte, 64)
	copy(want, "dirty")
	if got := back.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("evicted block came back as %q", got)
	}
}

func TestCacheFlushOrder(t *testing.T) {
	c := newTestCache(t, 4, noSuperBlocks, nil)
	for i := uint64(0); i < 4; i++ {
		line := mustFetch(t, c, i)
		if i != 2 {
			line.Set([]byte{byte(i)})
		}
	}
	c.Lookup(1) // recency is now 1, 3, (2 clean), 0
	written, failed, err := c.Flush()
	if written != 3 || failed != 0 || err != nil {
		t.Fatalf("Flush = %d written, %d failed, %v", written, failed, err)
	}
	// Every write-back draws the sealer's next nonce, so the nonce prefixed
	// to each sealed block gives the order the lines were written in.
	nonces := rng.NewReader(cacheNonceSeed)
	for _, index := range []uint64{1, 3, 0} {
		nonce := make([]byte, seal.NonceSize)
		if _, err := io.ReadFull(nonces, nonce); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.store.Sealed[index][:seal.NonceSize], nonce) {
			t.Fatalf("block %d was not flushed in most-recent-first order", index)
		}
	}
	if _, ok := c.store.Sealed[2]; ok {
		t.Fatal("Flush wrote a clean line")
	}
	for i := uint64(0); i < 4; i++ {
		if line := c.Lookup(i); line == nil || line.dirty {
			t.Fatalf("after Flush block %d is cached=%v, want cached and clean", i, line != nil)
		}
	}
	if written, _, _ := c.Flush(); written != 0 {
		t.Fatalf("second Flush wrote %d lines", written)
	}
}

func TestCacheHookCountsAccesses(t *testing.T) {
	sb := superblock.DefaultConfig()
	sb.MaxSize = 4
	hooked := 0
	c := newTestCache(t, 8, sb, &hooked)
	rnd := rng.New(3)
	spent := 0
	for op := 0; op < 2000; op++ {
		// Runs of neighbours give the dynamic scheme something to merge.
		index := (rnd.Uint64n(32)*8 + uint64(op%8)) % 256
		line := c.Lookup(index)
		if line == nil {
			if !c.canFetch() {
				spent += drainAll(t, c)
			}
			line = mustFetch(t, c, index)
			spent++ // a Fetch is one access; drains pay for its victims
		}
		if rnd.Uint64n(4) == 0 {
			wrote, err := c.Drain()
			if err != nil {
				t.Fatal(err)
			}
			if wrote {
				spent++
			}
		}
		if rnd.Uint64n(2) == 0 {
			line.Set([]byte{byte(op)})
		}
		if op%500 == 499 {
			written, _, err := c.Flush()
			if err != nil {
				t.Fatal(err)
			}
			spent += written
		}
	}
	s := c.store.Ctrl.Stats()
	if s.PrefetchIssued == 0 || s.Writebacks == 0 {
		t.Fatalf("workload exercised no prefetch or write-back: %+v", s)
	}
	if got := int(s.DemandReads + s.Writebacks); hooked != got || spent != got {
		t.Fatalf("hook fired %d times, costs sum to %d, controller served %d accesses", hooked, spent, got)
	}
}

func TestCacheCorruptBlocks(t *testing.T) {
	static := superblock.Config{Scheme: superblock.Static, MaxSize: 4}
	if _, err := NewCache(newTestCache(t, 4, static, nil).store, 3, nil); err == nil {
		t.Fatal("a 3-line cache under 4-block super blocks was accepted")
	}
	c := newTestCache(t, 4, static, nil)
	// One demand miss brings in the whole aligned group; write it out.
	line := mustFetch(t, c, 0)
	line.Set([]byte("zero"))
	for i := uint64(1); i < 4; i++ {
		c.Lookup(i).Set([]byte{byte(i)})
	}
	mustFetch(t, c, 16) // queues blocks 0..3, all dirty
	if n := drainAll(t, c); n != 4 {
		t.Fatalf("drained %d victims, want 4", n)
	}
	c.store.Sealed[1] = c.store.Sealed[1][:20]

	// A corrupt sibling only loses the prefetch.
	line = mustFetch(t, c, 0)
	if got := line.Bytes(); !bytes.HasPrefix(got, []byte("zero")) {
		t.Fatalf("demand block read %q", got[:4])
	}
	if c.Present(1) || !c.Present(2) || !c.Present(3) {
		t.Fatalf("siblings cached: 1=%v 2=%v 3=%v, want only 2 and 3", c.Present(1), c.Present(2), c.Present(3))
	}
	// A corrupt demand block fails the fetch, after its one ORAM access.
	mustFetch(t, c, 16)
	before := c.store.Ctrl.Stats().DemandReads
	line, err := c.Fetch(1)
	if err == nil || !strings.Contains(err.Error(), "block 1 corrupt") || line != nil {
		t.Fatalf("Fetch of a corrupt block returned %v, %v", line, err)
	}
	if got := c.store.Ctrl.Stats().DemandReads - before; got != 1 || c.Present(1) {
		t.Fatalf("failed fetch: controller served %d accesses, cached=%v", got, c.Present(1))
	}
}

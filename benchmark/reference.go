package main

import (
	"container/list"
	"crypto/aes"
	"crypto/cipher"
)

// The reference kernel is a fixed piece of work, built from the standard
// library alone, that an untraced run repeats between its windows. The
// sandbox's speed on cache-miss-bound code moves by 20-60 % with what the
// host's other tenants do, for seconds to minutes at a time, so a host time
// measured here says as much about the neighbours as about the program. The
// kernel does what the access path does — a map lookup, an LRU move, a
// root-to-leaf walk of random reads over a table larger than the caches, a
// block cipher over one block, a map delete and insert — and loses speed
// with the program (log-log slope 0.94-1.04 over ten-minute captures), so
// the ratio of the two holds still where neither does: runs of one commit
// spread by 4-6 % on the ratio against 7-15 % on the time itself. The
// timed end-to-end metrics are scaled by it (metrics.go's reportWindows).
//
// It never allocates, so the collector and the allocation metrics do not
// see it, and it takes no input from the program or the seed, so no later
// change to the program can move it.
type reference struct {
	lines  map[uint64]*refLine
	lru    *list.List
	table  []uint32
	stream cipher.Stream
	// spare holds the buffers the "evictions" cycle through, in place of
	// the allocator.
	spare [][]byte
	next  int
	x     uint64
}

type refLine struct {
	key  uint64
	data []byte
	elem *list.Element
}

const (
	refLines      = 1 << 14
	refTable      = 1 << 23 // uint32 entries: 32 MB, larger than the caches
	refSpare      = 1 << 13
	refBlockBytes = 128
	refWalk       = 17 // reads per iteration: one path of the library's tree
	// refIters is the work of one kernel run, about a millisecond.
	refIters = 1500
	// refNominalNS is what one kernel run takes on this sandbox in its quiet
	// minutes. It only fixes the scale: a run whose kernel reads exactly this
	// reports its times as measured.
	refNominalNS = 930_000
)

func newReference() *reference {
	k := &reference{
		lines: make(map[uint64]*refLine, refLines),
		lru:   list.New(),
		table: make([]uint32, refTable),
		spare: make([][]byte, refSpare),
		x:     1,
	}
	block, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		panic(err) // a 16-byte key is always valid
	}
	k.stream = cipher.NewCTR(block, make([]byte, aes.BlockSize))
	for i := range k.table {
		k.table[i] = uint32(i) * 2654435761
	}
	for i := uint64(0); i < refLines; i++ {
		l := &refLine{key: i, data: make([]byte, refBlockBytes)}
		l.elem = k.lru.PushFront(l)
		k.lines[i] = l
	}
	for i := range k.spare {
		k.spare[i] = make([]byte, refBlockBytes)
	}
	return k
}

// run does one kernel's worth of work and returns the host time it took.
func (k *reference) run() int64 {
	t0 := now()
	for i := 0; i < refIters; i++ {
		k.x = k.x*6364136223846793005 + 1442695040888963407
		hit := k.lines[(k.x>>33)%refLines]
		k.lru.MoveToFront(hit.elem)
		at := uint32(k.x >> 36)
		var sum uint32
		for l := 0; l < refWalk; l++ {
			sum += k.table[(at>>uint(l))%refTable]
		}
		victim := k.lru.Back().Value.(*refLine)
		out := k.spare[k.next]
		k.spare[k.next] = victim.data
		k.next = (k.next + 1) % refSpare
		victim.data[0] = byte(sum)
		k.stream.XORKeyStream(out, victim.data)
		delete(k.lines, victim.key)
		victim.data = out
		k.lines[victim.key] = victim
	}
	return now() - t0
}

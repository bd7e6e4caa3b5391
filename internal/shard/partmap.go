package shard

import (
	"fmt"
	"math/bits"
)

// PartitionMap routes global block indices to partitions: a seeded keyed
// hash spreads blocks over a power-of-two count of indirection groups, and
// group g lives on partition g mod P, so every partition starts with an
// equal share of the address space. Routing is deterministic in (seed,
// index), and Lookup is oblivious: a hash, a mask and two multiplications,
// with no table load, division or branch, so neither timing nor the memory
// trace of the map depends on the index.
type PartitionMap struct {
	partitions uint64
	seed       uint64
	mask       uint64 // groups-1
	fastmod    uint64 // ⌈2^64/partitions⌉ mod 2^64, Lemire's fastmod constant
}

// maxPartitions bounds the partition count; with the default of 8 groups
// per partition it keeps the group count at most 2^19, far inside the
// 2^32 over which fastmod is exact.
const maxPartitions = 1 << 16

// NewPartitionMap builds a map over the given partition count. groups is
// rounded up to a power of two and defaults to max(64, 8×partitions).
func NewPartitionMap(partitions, groups int, seed uint64) (*PartitionMap, error) {
	if partitions < 1 {
		return nil, fmt.Errorf("shard: partitions %d must be >= 1", partitions)
	}
	if partitions > maxPartitions {
		return nil, fmt.Errorf("shard: partitions %d exceed %d", partitions, maxPartitions)
	}
	if groups <= 0 {
		groups = 8 * partitions
		if groups < 64 {
			groups = 64
		}
	}
	if groups < partitions {
		return nil, fmt.Errorf("shard: %d groups cannot cover %d partitions", groups, partitions)
	}
	if groups > 8*maxPartitions {
		return nil, fmt.Errorf("shard: %d groups exceed %d", groups, 8*maxPartitions)
	}
	g := 1
	for g < groups {
		g <<= 1
	}
	p := uint64(partitions)
	return &PartitionMap{partitions: p, seed: seed, mask: uint64(g - 1), fastmod: ^uint64(0)/p + 1}, nil
}

// mix is a splitmix64-style keyed finalizer: a 64-bit permutation of
// index under the key. Distinct seeds give effectively independent
// spreads of the address space.
func mix(key, index uint64) uint64 {
	z := index + key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Lookup returns the partition of a block index: its group mod P, by
// Lemire's fastmod (the high word of (fastmod×group mod 2^64)×P), which
// is exact for group and P below 2^32. For P = 1 the constant wraps to 0
// and so does the result.
func (m *PartitionMap) Lookup(index uint64) int {
	g := mix(m.seed, index) & m.mask
	hi, _ := bits.Mul64(m.fastmod*g, m.partitions)
	return int(hi)
}

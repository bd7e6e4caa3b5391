package shard

import "fmt"

// PartitionMap routes global block indices to partitions: a seeded keyed
// hash spreads blocks over Groups indirection groups, and a small
// group→partition table assigns each group a home partition. Routing is
// deterministic in (seed, index), and the table scan is oblivious: every
// lookup reads all Groups entries with branchless selection, so neither
// timing nor the memory trace of the map itself depends on the index.
//
// The indirection level exists for the future background shuffler:
// re-homing a group is one table write, no re-hash of the address space.
type PartitionMap struct {
	partitions int
	seed       uint64
	table      []uint16 // group -> partition
}

// NewPartitionMap builds a map over the given partition count. groups is
// rounded up to a power of two and defaults to max(64, 8×partitions);
// groups are assigned round-robin so every partition starts with an equal
// share of the address space.
func NewPartitionMap(partitions, groups int, seed uint64) (*PartitionMap, error) {
	if partitions < 1 {
		return nil, fmt.Errorf("shard: partitions %d must be >= 1", partitions)
	}
	if partitions > 1<<16 {
		return nil, fmt.Errorf("shard: partitions %d exceed the 65536 the table encodes", partitions)
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
	g := 1
	for g < groups {
		g <<= 1
	}
	m := &PartitionMap{partitions: partitions, seed: seed, table: make([]uint16, g)}
	for i := range m.table {
		m.table[i] = uint16(i % partitions)
	}
	return m, nil
}

// Partitions returns the partition count.
func (m *PartitionMap) Partitions() int { return m.partitions }

// Groups returns the indirection-table size.
func (m *PartitionMap) Groups() int { return len(m.table) }

// mix is a splitmix64-style keyed finalizer: a 64-bit permutation of
// index under the key. Distinct seeds give effectively independent
// spreads of the address space.
func mix(key, index uint64) uint64 {
	z := index + key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Group returns the indirection group of a block index.
func (m *PartitionMap) Group(index uint64) int {
	return int(mix(m.seed, index) & uint64(len(m.table)-1))
}

// Lookup returns the partition of a block index. The table scan is
// fixed-length and branchless: entry i contributes iff i == group, via an
// arithmetically derived all-ones/all-zeros mask, so the scan's control
// flow and touched addresses are identical for every index.
//
//proram:branchless the scan's control flow and touched addresses must be identical for every index
func (m *PartitionMap) Lookup(index uint64) int {
	g := uint64(m.Group(index))
	var p uint16
	table := m.table
	for i := range table {
		// (d|-d)>>63 is 1 for any nonzero d, 0 for d == 0, so eq is 1
		// exactly when i == g; mask is then 0xffff or 0x0000.
		d := uint64(i) ^ g
		eq := ((d | -d) >> 63) ^ 1
		mask := uint16(0) - uint16(eq)
		p |= table[i] & mask
	}
	return int(p)
}

// Rehome reassigns an indirection group to a new partition. It is the
// repartitioning hook for a future background shuffler; the caller owns
// migrating the group's resident blocks before routing flips.
func (m *PartitionMap) Rehome(group, partition int) error {
	if group < 0 || group >= len(m.table) {
		return fmt.Errorf("shard: group %d out of range (%d groups)", group, len(m.table))
	}
	if partition < 0 || partition >= m.partitions {
		return fmt.Errorf("shard: partition %d out of range (%d partitions)", partition, m.partitions)
	}
	m.table[group] = uint16(partition)
	return nil
}

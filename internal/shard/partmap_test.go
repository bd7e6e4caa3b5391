package shard

import "testing"

func TestPartitionMapDeterministicAndInRange(t *testing.T) {
	m, err := NewPartitionMap(8, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if m.Groups() < 64 || m.Groups()&(m.Groups()-1) != 0 {
		t.Fatalf("groups = %d, want a power of two >= 64", m.Groups())
	}
	m2, _ := NewPartitionMap(8, 0, 42)
	for i := uint64(0); i < 4096; i++ {
		p := m.Lookup(i)
		if p < 0 || p >= 8 {
			t.Fatalf("Lookup(%d) = %d out of range", i, p)
		}
		if p2 := m2.Lookup(i); p2 != p {
			t.Fatalf("Lookup(%d) differs across identically seeded maps: %d vs %d", i, p, p2)
		}
	}
}

func TestPartitionMapSpread(t *testing.T) {
	const parts, n = 8, 1 << 14
	m, err := NewPartitionMap(parts, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	var counts [parts]int
	for i := uint64(0); i < n; i++ {
		counts[m.Lookup(i)]++
	}
	// The round-robin group assignment plus a mixing hash keeps the load
	// well inside the 25% headroom the frontend provisions per partition.
	limit := n / parts * 5 / 4
	for p, c := range counts {
		if c == 0 {
			t.Fatalf("partition %d received no blocks", p)
		}
		if c > limit {
			t.Fatalf("partition %d received %d of %d blocks, over the %d headroom", p, c, n, limit)
		}
	}
}

// tableScan is the routing Lookup replaced: a group→partition table with
// table[i] = i mod P, read in full by a masked scan. It stays here as the
// reference the arithmetic must reproduce.
func tableScan(table []uint16, g uint64) int {
	var p uint16
	for i := range table {
		d := uint64(i) ^ g
		eq := ((d | -d) >> 63) ^ 1
		p |= table[i] & (uint16(0) - uint16(eq))
	}
	return int(p)
}

func TestLookupMatchesTableScan(t *testing.T) {
	for _, parts := range []int{1, 2, 3, 5, 8, 64, 65, 1000, 65535, 65536} {
		for _, groups := range []int{0, parts, 4 * parts} {
			m, err := NewPartitionMap(parts, groups, 0x5eed)
			if err != nil {
				t.Fatalf("P=%d groups=%d: %v", parts, groups, err)
			}
			table := make([]uint16, m.Groups())
			for i := range table {
				table[i] = uint16(i % parts)
			}
			// The scan costs Groups steps per index: sample fewer indices
			// at large Groups so the whole test stays well under a second.
			n := min(4096, max(8, (1<<21)/len(table)))
			for i := 0; i < n; i++ {
				idx := uint64(i) * 0x9e3779b97f4a7c15
				want := tableScan(table, mix(0x5eed, idx)&uint64(len(table)-1))
				if got := m.Lookup(idx); got != want {
					t.Fatalf("P=%d groups=%d: Lookup(%#x) = %d, table scan %d", parts, groups, idx, got, want)
				}
			}
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	m, err := NewPartitionMap(2, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	var sink int
	for i := 0; i < b.N; i++ {
		sink += m.Lookup(uint64(i))
	}
	if sink < 0 {
		b.Fatal("negative partition")
	}
}

func TestNewPartitionMapRejectsBadShapes(t *testing.T) {
	if _, err := NewPartitionMap(0, 0, 1); err == nil {
		t.Fatal("accepted zero partitions")
	}
	if _, err := NewPartitionMap(128, 16, 1); err == nil {
		t.Fatal("accepted fewer groups than partitions")
	}
	if _, err := NewPartitionMap(maxPartitions+1, 0, 1); err == nil {
		t.Fatal("accepted more than maxPartitions partitions")
	}
	if _, err := NewPartitionMap(2, 8*maxPartitions+1, 1); err == nil {
		t.Fatal("accepted more groups than fastmod is checked for")
	}
}

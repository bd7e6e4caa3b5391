package oram

import (
	"encoding/binary"
	"hash/fnv"
	"strings"
	"testing"

	"proram/internal/mem"
	"proram/internal/superblock"
	"proram/internal/tree"
)

// prefillCase is one initialized tree TestPrefillTreeIdentity pins and,
// at full size, BenchmarkPrefill times.
type prefillCase struct {
	name string
	cfg  Config
	hash uint64 // prefillHash of the tree New builds
}

// prefillCases covers every scheme at a small geometry (2^14 data blocks
// and an on-chip table of 8, so three position-map levels of 512, 16 and 1
// blocks; static super blocks of 8 leave blocks in the stash) and the
// Table 1 system of the repository benchmark's sim_locality workload (1.5M
// blocks, a 24 MB tree) under the dynamic and the static scheme. The hashes
// were recorded from the one-block-at-a-time prefill: placing a level a
// subtree at a time (tree.PlaceAll) changes the order in which buckets are
// filled, never which leaf a block draws or where it lands.
func prefillCases() []prefillCase {
	small := func(sb superblock.Config) Config {
		cfg := DefaultConfig()
		cfg.NumBlocks = 1 << 14
		cfg.OnChipEntries = 8
		cfg.Prefill = true
		cfg.Super = sb
		return cfg
	}
	simLocality := func(sb superblock.Config) Config {
		cfg := DefaultConfig()
		cfg.Prefill = true
		cfg.Super = sb
		return cfg
	}
	static := func(n int) superblock.Config { return superblock.Config{Scheme: superblock.Static, MaxSize: n} }
	dynamic := superblock.DefaultConfig()
	dynamic.MaxSize = 2
	return []prefillCase{
		{"none", small(superblock.Config{Scheme: superblock.None, MaxSize: 1}), 0xfa70e97533229c06},
		{"static2", small(static(2)), 0x39e28596214ac4a8},
		{"static4", small(static(4)), 0xca79caf7c6ec06af},
		{"static8", small(static(8)), 0x4ded3ef8332fdc09},
		{"dynamic", small(dynamic), 0xfa70e97533229c06},
		{"sim_locality/dynamic", simLocality(dynamic), 0xc34f7878aa68e325},
		{"sim_locality/static2", simLocality(static(2)), 0x34ac0c78c891dbd4},
	}
}

// prefillHash is an FNV-64a digest of everything prefill decides: every
// occupied tree slot as (node, slot index, block, label) in node and slot
// order, then every stashed block and its label in stash order.
func prefillHash(c *Controller) uint64 {
	h := fnv.New64a()
	var buf [32]byte
	c.tr.ForEach(func(node uint64, i int, b tree.Labeled) {
		binary.LittleEndian.PutUint64(buf[0:], node)
		binary.LittleEndian.PutUint64(buf[8:], uint64(i))
		binary.LittleEndian.PutUint64(buf[16:], uint64(b.ID))
		binary.LittleEndian.PutUint64(buf[24:], uint64(b.Leaf))
		h.Write(buf[:])
	})
	c.st.ForEach(func(id mem.BlockID, leaf mem.Leaf) {
		binary.LittleEndian.PutUint64(buf[0:], uint64(id))
		binary.LittleEndian.PutUint64(buf[8:], uint64(leaf))
		h.Write(buf[:16])
	})
	return h.Sum64()
}

// TestPrefillTreeIdentity pins the initialized tree and stash slot for
// slot, which is sharper than the simulator pins that depend on them.
func TestPrefillTreeIdentity(t *testing.T) {
	for _, pc := range prefillCases() {
		t.Run(pc.name, func(t *testing.T) {
			if testing.Short() && pc.cfg.NumBlocks > 1<<14 {
				t.Skip("full Table 1 tree; skipped in -short")
			}
			c, err := New(pc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.CheckInvariant(); err != nil {
				t.Fatal(err)
			}
			if got := prefillHash(c); got != pc.hash {
				t.Errorf("tree+stash hash = %#x, want %#x (used %d, stash %d)", got, pc.hash, c.tr.Used(), c.st.Size())
			}
		})
	}
}

// BenchmarkPrefill times New with Prefill at the sim_locality geometry:
// the tree build behind the simulator workloads' setup_s. Run it with
// `go test -run '^$' -bench Prefill -benchtime 3x ./internal/oram`.
func BenchmarkPrefill(b *testing.B) {
	for _, pc := range prefillCases() {
		name, ok := strings.CutPrefix(pc.name, "sim_locality/")
		if !ok {
			continue
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := New(pc.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Package oram implements the full Unified/Recursive Path ORAM controller
// of the paper: the trusted logic that turns each logical block request
// into path accesses on the untrusted binary tree, maintains the stash and
// recursive position map (with a PLB), issues background evictions and
// periodic dummy accesses, and runs the PrORAM super block schemes
// (static and dynamic merge/break).
//
// The controller is functionally exact — blocks really move between tree,
// stash and the on-chip structures, and every invariant of Path ORAM is
// maintained — while time is modeled analytically from the DRAM channel
// parameters, matching the paper's Graphite methodology.
package oram

import (
	"fmt"

	"proram/internal/dram"
	"proram/internal/dram/banked"
	"proram/internal/posmap"
	"proram/internal/superblock"
)

// Config describes one ORAM instance.
type Config struct {
	// NumBlocks is the number of logical data blocks (the ORAM capacity in
	// blocks). The paper's 8 GB / 128 B config is 2^26 blocks; the default
	// simulated capacity is smaller (see DefaultConfig).
	NumBlocks uint64
	// BlockBytes is the ORAM basic block (= cacheline) size; 128 in Table 1.
	BlockBytes int
	// Z is the bucket capacity; 3 in Table 1.
	Z int
	// StashLimit is the stash capacity in blocks (100 in Table 1); the
	// controller issues background evictions while occupancy exceeds it.
	StashLimit int
	// Fanout is the number of position-map entries per position-map block
	// (32 in the paper).
	Fanout int
	// OnChipEntries bounds the final on-chip position map; recursion adds
	// levels until the top level has at most this many blocks.
	OnChipEntries uint64
	// PLBBlocks is the capacity of the position-map lookaside buffer in
	// blocks; 0 disables it (every recursion level pays a path access).
	PLBBlocks int

	// DRAM supplies channel latency/bandwidth for the flat device.
	DRAM dram.Config
	// Banked, when non-nil, replaces the flat device with a banked
	// multi-channel one: every bucket of every path is scheduled
	// individually (row-buffer state, per-channel buses) through the layout
	// in Banked.Layout, and the read and write-back phases of consecutive
	// paths overlap.
	Banked *banked.Config
	// CryptoLatency is the fixed pipeline-fill cost charged per path
	// access for decryption/encryption.
	CryptoLatency uint64
	// PathLatencyOverride, when nonzero, pins the per-path-access latency
	// to an exact cycle count (e.g. the paper's 2364) instead of deriving
	// it from tree geometry and bandwidth.
	PathLatencyOverride uint64

	// Periodic enables timing-channel protection: path accesses occur on a
	// fixed cadence, with dummy accesses filling idle slots (§2.5, §5.6).
	Periodic bool
	// Oint is the public gap in cycles between consecutive accesses when
	// Periodic is set (100 in §5.6).
	Oint uint64
	// DynamicOint enables the §2.5 extension: the interval adapts within
	// the public ladder [Oint, OintMax] by doubling/halving at epoch
	// boundaries, trading a bounded timing leak (one bit per transition,
	// see Controller.OintTransitions) for fewer dummy accesses.
	DynamicOint bool
	// OintMax caps the adaptive interval (default 16×Oint).
	OintMax uint64
	// OintEpoch is the number of scheduled accesses per adaptation
	// decision (default 64).
	OintEpoch int

	// Super selects and parameterizes the super block scheme.
	Super superblock.Config

	// Prefill populates the entire ORAM at construction (every data and
	// position-map block assigned a leaf and placed in the tree), matching
	// the paper's initialized ORAM: a full tree is what creates realistic
	// stash pressure and background-eviction rates. When false, a block
	// gets its first leaf when it is first touched (cheaper for
	// small-footprint uses).
	Prefill bool
	// Seed drives all randomness (leaf assignment); runs are reproducible.
	Seed uint64
	// RecordTrace keeps the physical access trace (leaf sequence) for
	// security analysis. Costs memory proportional to path accesses.
	RecordTrace bool
	// LeakBiasLeaf is a NEGATIVE CONTROL for the obliviousness auditor:
	// it deliberately breaks the uniform-leaf invariant by drawing remap
	// leaves from only the lower half of the leaf range. Never set it
	// outside auditor validation runs — it voids the security argument.
	LeakBiasLeaf bool
}

// DefaultConfig returns the paper's Table 1 configuration scaled to the
// default simulated capacity (192 MB of 128-byte blocks).
func DefaultConfig() Config {
	return Config{
		// 1.5M blocks (192 MB) over a 2^19-leaf Z=3 tree puts slot
		// utilization at ~50%, the provisioning of Ren et al. [25] that
		// produces the paper's background-eviction pressure. The paper's
		// full 8 GB is reachable by raising NumBlocks to 1<<26.
		NumBlocks:     1_500_000,
		BlockBytes:    128,
		Z:             3,
		StashLimit:    100,
		Fanout:        32,
		OnChipEntries: 4096,
		PLBBlocks:     128,
		DRAM:          dram.DefaultConfig(),
		CryptoLatency: 100,
		Oint:          100,
		Super:         superblock.Config{Scheme: superblock.None, MaxSize: 1},
		Seed:          1,
	}
}

// MaxTreeLevels bounds the derived tree depth: a position-map entry holds a
// 32-bit leaf label.
const MaxTreeLevels = 31

// maxZ and maxBlockBytes bound the two fields that multiply every bucket
// and every cached line: past them a small capacity is still an allocation
// the process does not survive. A bucket is one DRAM burst and a block one
// cache line; 64 slots and 64 KiB are far past either.
const (
	maxZ          = 64
	maxBlockBytes = 1 << 16
)

// posMap returns the position-map hierarchy's configuration.
func (c Config) posMap() posmap.Config {
	return posmap.Config{NumBlocks: c.NumBlocks, Fanout: c.Fanout, OnChipMax: c.OnChipEntries}
}

// Validate reports whether the configuration is usable. The geometry is
// checked by arithmetic: nothing is sized by the population asked for.
func (c Config) Validate() error {
	if c.NumBlocks < 2 {
		return fmt.Errorf("oram: NumBlocks %d too small", c.NumBlocks)
	}
	if c.BlockBytes < 8 || c.BlockBytes > maxBlockBytes {
		return fmt.Errorf("oram: BlockBytes %d out of range [8,%d]", c.BlockBytes, maxBlockBytes)
	}
	if c.Z < 1 || c.Z > maxZ {
		return fmt.Errorf("oram: Z %d out of range [1,%d]", c.Z, maxZ)
	}
	if c.StashLimit < 1 {
		return fmt.Errorf("oram: StashLimit %d must be positive", c.StashLimit)
	}
	if c.Fanout < 2 {
		return fmt.Errorf("oram: Fanout %d must be >= 2", c.Fanout)
	}
	if c.OnChipEntries < 1 {
		return fmt.Errorf("oram: OnChipEntries must be positive")
	}
	if c.PLBBlocks < 0 {
		return fmt.Errorf("oram: PLBBlocks %d must be >= 0", c.PLBBlocks)
	}
	// Refused here, by arithmetic, before New sizes anything for it. The
	// total is at least NumBlocks, so the first test already refuses every
	// population whose level sum could overflow in the second.
	if c.NumBlocks >= 1<<(MaxTreeLevels+2) || c.TreeLevels(c.posMap().TotalBlocks()) > MaxTreeLevels {
		return fmt.Errorf("oram: NumBlocks %d needs a tree deeper than %d levels", c.NumBlocks, MaxTreeLevels)
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if c.Banked != nil {
		if err := c.Banked.Validate(); err != nil {
			return err
		}
	}
	if c.Periodic && c.Oint == 0 {
		return fmt.Errorf("oram: Periodic requires a positive Oint")
	}
	if c.DynamicOint && !c.Periodic {
		return fmt.Errorf("oram: DynamicOint requires Periodic")
	}
	if c.DynamicOint && c.OintMax != 0 && c.OintMax < c.Oint {
		return fmt.Errorf("oram: OintMax %d below Oint %d", c.OintMax, c.Oint)
	}
	if err := c.Super.Validate(); err != nil {
		return err
	}
	if c.Super.Scheme != superblock.None && c.Super.MaxSize > c.Fanout {
		return fmt.Errorf("oram: MaxSize %d exceeds position-map fanout %d (a super block must fit in one pos-map block)",
			c.Super.MaxSize, c.Fanout)
	}
	return nil
}

// TreeLevels returns the derived tree depth L: leaves ≈ half the total
// block population, the standard Path ORAM provisioning (slot utilization
// ≈ 1/Z with Z per bucket, i.e. ~33% at Z=3 — tight enough that a full
// tree produces the background-eviction pressure the paper studies). The
// paper's 8 GB configuration (2^26 blocks + position maps) lands at L=25.
func (c Config) TreeLevels(totalBlocks uint64) int {
	// Choose L with 2^(L+1) <= total < 2^(L+2), i.e. leaves in
	// [total/4, total/2].
	levels := 0
	for (uint64(1) << (levels + 2)) <= totalBlocks {
		levels++
	}
	if levels < 2 {
		levels = 2
	}
	return levels
}

// PathLatency returns the cycles one full path access occupies the memory
// channel: read + write of (L+1)·Z blocks, plus the fixed DRAM and crypto
// overheads — or the override when set.
func (c Config) PathLatency(levels int) uint64 {
	if c.PathLatencyOverride != 0 {
		return c.PathLatencyOverride
	}
	bytes := 2 * uint64(levels+1) * uint64(c.Z) * uint64(c.BlockBytes)
	return c.DRAM.TransferCycles(bytes) + c.DRAM.LatencyCycles + c.CryptoLatency
}

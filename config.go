package proram

import (
	"fmt"
	"io"

	"proram/internal/dram/banked"
	"proram/internal/oram"
	"proram/internal/rng"
	"proram/internal/superblock"
)

// Scheme selects the prefetching scheme of an oblivious RAM.
type Scheme int

const (
	// SchemeNone is baseline Path ORAM: no super blocks.
	SchemeNone Scheme = iota
	// SchemeStatic merges every aligned group of MaxSuperBlock blocks at
	// initialization (the prior static scheme the paper compares against).
	SchemeStatic
	// SchemeDynamic is PrORAM: super blocks merge and break at runtime
	// based on observed spatial locality.
	SchemeDynamic
)

// validate rejects values outside the declared schemes.
func (s Scheme) validate() error {
	switch s {
	case SchemeNone, SchemeStatic, SchemeDynamic:
		return nil
	}
	return fmt.Errorf("proram: unknown scheme %d", int(s))
}

func (s Scheme) String() string {
	switch s {
	case SchemeNone:
		return "none"
	case SchemeStatic:
		return "static"
	case SchemeDynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Config describes an oblivious RAM instance.
type Config struct {
	// Blocks is the capacity in blocks. Addresses passed to Read/Write
	// must be below Blocks. The constructors refuse more than 2^32 blocks
	// per partition, the most a tree slot can name (a 31-level tree).
	Blocks uint64
	// BlockBytes is the block (cacheline) size; 128 by default.
	BlockBytes int
	// Scheme selects the prefetcher; SchemeDynamic is PrORAM.
	Scheme Scheme
	// MaxSuperBlock bounds super block size (power of two; default 2).
	MaxSuperBlock int
	// CacheBlocks sizes the client-side block cache that plays the LLC's
	// role: it serves repeated reads locally and lets the dynamic scheme
	// observe co-residency. Default 4096 blocks; at least 16 and at least
	// MaxSuperBlock (per partition under NewSharded, where each partition
	// gets max(16, CacheBlocks/Partitions)): a cache smaller than one super
	// block would evict a demand line under its own prefetched siblings, so
	// New and NewSharded refuse it.
	CacheBlocks int
	// Z is the tree bucket size (default 3).
	Z int
	// StashBlocks is the stash capacity (default 100).
	StashBlocks int
	// Key is the 16/24/32-byte AES key sealing block payloads at rest.
	// Nil derives an ephemeral key from Seed (fine for experiments; supply
	// a real key for actual storage).
	Key []byte
	// Seed drives the ORAM's randomness. Zero means 1.
	Seed uint64
	// Partitions splits the address space across this many independent
	// ORAM controllers behind the concurrent sharded frontend (NewSharded).
	// New ignores it — the unified RAM is always one controller. Default 1.
	Partitions int
	// RoundSlots fixes the ORAM access count every partition issues per
	// scheduling round in the sharded frontend (NewSharded only): one
	// access per cache miss, write-backs of evicted dirty blocks and then
	// dummies for the rest, so the observable round shape is
	// workload-independent. 0 picks 2, the floor: a miss costs one slot
	// whatever it evicts (its dirty victims queue for later slots), so two
	// slots fit one miss and one write-back. Values above 4096 are refused.
	RoundSlots int
	// DRAM selects the memory device behind the ORAM controller(s): the
	// zero value is DRAMFlat, Table 1's one serialized channel; a banked
	// model schedules every tree bucket individually on a dual-channel
	// device of 8 banks per channel (internal/dram/banked). Under
	// NewSharded a banked model is ONE device all partitions contend for.
	DRAM DRAMModel
}

// DRAMModel selects the memory timing model.
type DRAMModel int

const (
	// DRAMFlat is one serialized channel: every path access is a bulk
	// transfer that owns the whole device.
	DRAMFlat DRAMModel = iota
	// DRAMBanked is the multi-channel banked model with the tree stored in
	// plain heap order (buckets scatter over rows).
	DRAMBanked
	// DRAMBankedPacked is the banked model with the subtree-packed layout:
	// depth-k subtrees co-locate in single DRAM rows and the hot top-of-tree
	// buckets each hold a row open, striped across channels.
	DRAMBankedPacked
)

func (m DRAMModel) String() string {
	switch m {
	case DRAMFlat:
		return "flat"
	case DRAMBanked:
		return "banked"
	case DRAMBankedPacked:
		return "packed"
	default:
		return fmt.Sprintf("DRAMModel(%d)", int(m))
	}
}

// validate rejects unknown models.
func (m DRAMModel) validate() error {
	switch m {
	case DRAMFlat, DRAMBanked, DRAMBankedPacked:
		return nil
	default:
		return fmt.Errorf("proram: unknown DRAM model %d", int(m))
	}
}

// bankedConfig lowers the model to the internal device configuration; nil
// means the flat model.
func (m DRAMModel) bankedConfig() *banked.Config {
	if m == DRAMFlat {
		return nil
	}
	b := banked.DefaultConfig()
	if m == DRAMBanked {
		b.Layout = banked.LayoutLinear
	}
	return &b
}

// DefaultConfig returns a PrORAM-enabled RAM of 2^16 blocks (8 MB).
func DefaultConfig() Config {
	return Config{
		Blocks:        1 << 16,
		BlockBytes:    128,
		Scheme:        SchemeDynamic,
		MaxSuperBlock: 2,
		CacheBlocks:   4096,
		Z:             3,
		StashBlocks:   100,
		Seed:          1,
	}
}

// normalize fills zero fields with defaults and validates.
func (c Config) normalize() (Config, error) {
	d := DefaultConfig()
	if c.Blocks == 0 {
		c.Blocks = d.Blocks
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = d.BlockBytes
	}
	if c.MaxSuperBlock == 0 {
		c.MaxSuperBlock = d.MaxSuperBlock
	}
	if c.CacheBlocks == 0 {
		c.CacheBlocks = d.CacheBlocks
	}
	if c.Z == 0 {
		c.Z = d.Z
	}
	if c.StashBlocks == 0 {
		c.StashBlocks = d.StashBlocks
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Partitions == 0 {
		c.Partitions = 1
	}
	if c.Partitions < 0 {
		return c, fmt.Errorf("proram: Partitions %d must be positive", c.Partitions)
	}
	if c.RoundSlots < 0 {
		return c, fmt.Errorf("proram: RoundSlots %d must be non-negative", c.RoundSlots)
	}
	if err := c.DRAM.validate(); err != nil {
		return c, err
	}
	if c.Blocks < 2 {
		return c, fmt.Errorf("proram: Blocks %d too small", c.Blocks)
	}
	if c.CacheBlocks < 16 {
		return c, fmt.Errorf("proram: CacheBlocks %d too small (min 16)", c.CacheBlocks)
	}
	return c, c.Scheme.validate()
}

// oramConfig converts to the internal controller configuration.
func (c Config) oramConfig() oram.Config {
	o := oram.DefaultConfig()
	o.NumBlocks = c.Blocks
	o.BlockBytes = c.BlockBytes
	o.Z = c.Z
	o.StashLimit = c.StashBlocks
	o.Seed = c.Seed
	o.Super = superblockConfig(c.Scheme, c.MaxSuperBlock)
	o.Banked = c.DRAM.bankedConfig()
	return o
}

// sealKey returns the configured sealing key, deriving one from the seed
// when none is supplied.
func (c Config) sealKey() []byte {
	if c.Key != nil {
		return c.Key
	}
	return deriveKey(c.Seed)
}

// nonceSource returns the sealer's nonce stream. Deterministic nonces keep
// whole experiments reproducible; supply Config.Key plus your own entropy
// expectations for real deployments.
func (c Config) nonceSource() io.Reader {
	return rng.NewReader(c.Seed ^ 0x5eed)
}

// superblockConfig maps the public scheme to the internal policy config.
func superblockConfig(s Scheme, maxSize int) superblock.Config {
	switch s {
	case SchemeStatic:
		return superblock.Config{Scheme: superblock.Static, MaxSize: maxSize}
	case SchemeDynamic:
		sb := superblock.DefaultConfig()
		sb.MaxSize = maxSize
		return sb
	default:
		return superblock.Config{Scheme: superblock.None, MaxSize: 1}
	}
}

// Stats summarizes what an oblivious RAM (or the ORAM side of a
// simulation) did.
type Stats struct {
	// Reads and Writes are the logical operations served.
	Reads, Writes uint64
	// CacheHits counts operations served from the client cache without an
	// ORAM access.
	CacheHits uint64
	// PathAccesses is the total ORAM work (each is a full tree-path
	// read+write) — the paper's energy proxy.
	PathAccesses uint64
	// BackgroundEvictions and DummyAccesses count overhead accesses.
	BackgroundEvictions uint64
	DummyAccesses       uint64
	// Merges/Breaks are super block transitions (dynamic scheme).
	Merges, Breaks uint64
	// PrefetchIssued/PrefetchHits/PrefetchUnused track prefetch outcomes.
	PrefetchIssued, PrefetchHits, PrefetchUnused uint64
	// StashHighWater is the peak stash occupancy.
	StashHighWater int
}

// PrefetchMissRate returns unused/(hits+unused), the Figure 9 metric.
func (s Stats) PrefetchMissRate() float64 {
	t := s.PrefetchHits + s.PrefetchUnused
	if t == 0 {
		return 0
	}
	return float64(s.PrefetchUnused) / float64(t)
}

// statsFrom converts internal controller statistics.
func statsFrom(o oram.Stats, reads, writes, cacheHits uint64) Stats {
	return Stats{
		Reads:               reads,
		Writes:              writes,
		CacheHits:           cacheHits,
		PathAccesses:        o.PathAccesses,
		BackgroundEvictions: o.BackgroundEvictions,
		DummyAccesses:       o.DummyAccesses,
		Merges:              o.Merges,
		Breaks:              o.Breaks,
		PrefetchIssued:      o.PrefetchIssued,
		PrefetchHits:        o.PrefetchHits,
		PrefetchUnused:      o.PrefetchUnused,
		StashHighWater:      o.StashHighWater,
	}
}

// Package banked models main memory as channels × ranks × banks with
// row-buffer state — the co-design layer between the ORAM tree and the
// physical device. Where the flat model (internal/dram) charges every path
// access one serialized bulk transfer, this model schedules every bucket
// individually: reads stripe across channels, the write-back phase of one
// path overlaps the read phase of the next, and the physical tree layout
// decides whether consecutive buckets hit an open row or thrash a bank.
//
// All times are in core clock cycles (uint64). The model is analytic and
// fully deterministic: completion times are pure integer functions of the
// access sequence, so replayed runs are byte-identical.
package banked

import (
	"fmt"

	"proram/internal/dram"
)

// Layout selects how tree buckets map to physical addresses.
type Layout int

const (
	// LayoutLinear stores buckets in heap order: bucket n at (n-1)·bucketBytes.
	// Simple, but a path's buckets scatter over rows arbitrarily and the
	// top-of-tree rows all land in the same channel stripe.
	LayoutLinear Layout = iota
	// LayoutSubtreePacked packs each depth-k subtree into one DRAM row, so
	// a path enjoys k buckets per row activation, and gives each of the hot
	// top-of-tree buckets its own permanently-open row striped across
	// channels. This is the Palermo-style ORAM/DRAM co-design layout.
	LayoutSubtreePacked
)

func (l Layout) String() string {
	switch l {
	case LayoutLinear:
		return "linear"
	case LayoutSubtreePacked:
		return "subtree-packed"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// Config describes the banked device geometry and timing. The zero value is
// not usable; start from DefaultConfig.
type Config struct {
	// Channels is the number of independent memory channels, each with its
	// own data bus and banks.
	Channels int
	// Ranks is the number of ranks per channel; banks multiply across ranks.
	Ranks int
	// Banks is the number of banks per rank. Each bank has one row buffer.
	Banks int
	// RowBytes is the row-buffer (DRAM page) size per bank.
	RowBytes int
	// StripeBytes is the channel-interleave granularity: consecutive
	// StripeBytes-sized stripes of the physical address space alternate
	// channels. 0 defaults to RowBytes (row-granular interleave, which keeps
	// one packed subtree on one channel).
	StripeBytes int
	// BandwidthGBps is the pin bandwidth of ONE channel; the aggregate
	// device bandwidth is Channels× this. The default matches the flat
	// model's single 16 GB/s channel, so adding channels adds real pins.
	BandwidthGBps float64
	// ClockGHz converts bandwidth into bytes per core cycle.
	ClockGHz float64
	// TRCD is the activate-to-column delay (row miss adds TRCD+TCAS).
	TRCD uint64
	// TCAS is the column-access latency paid by every access.
	TCAS uint64
	// TRP is the precharge latency (row conflict adds TRP on top of a miss).
	TRP uint64
	// Layout maps tree buckets to physical addresses.
	Layout Layout
}

// DefaultConfig returns a dual-channel DDR-style geometry: 2 channels of
// 16 GB/s each, 8 banks with 4 KB rows, timing in 1 GHz core cycles
// (tRCD=tCAS=tRP=14 ≈ 14 ns), subtree-packed layout.
func DefaultConfig() Config {
	return Config{
		Channels:      2,
		Ranks:         1,
		Banks:         8,
		RowBytes:      4096,
		StripeBytes:   4096,
		BandwidthGBps: 16,
		ClockGHz:      1,
		TRCD:          14,
		TCAS:          14,
		TRP:           14,
		Layout:        LayoutSubtreePacked,
	}
}

// normalized fills defaulted fields.
func (c Config) normalized() Config {
	if c.StripeBytes == 0 {
		c.StripeBytes = c.RowBytes
	}
	return c
}

// RatePer1024 returns one channel's rate as bytes per 1024 cycles, the
// fixed-point form all transfer timing uses (exact integer ceil division;
// no float enters per-access arithmetic); 0 for a configuration Validate
// refuses.
func (c Config) RatePer1024() uint64 {
	r, _ := dram.Rate1024(c.BandwidthGBps, c.ClockGHz)
	return r
}

// maxBanks caps Channels × Ranks × Banks. The model keeps three words of
// state per bank, so an unbounded product is an allocation the process
// does not survive; 2^16 is far past any real device.
const maxBanks = 1 << 16

// maxRowBytes caps RowBytes and StripeBytes, so that the channel-stripe
// period (either times the bank count) stays far inside uint64.
const maxRowBytes = 1 << 30

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	c = c.normalized()
	if c.Channels < 1 || c.Channels > 64 {
		return fmt.Errorf("banked: Channels %d out of range [1,64]", c.Channels)
	}
	if c.Ranks < 1 || c.Ranks > maxBanks {
		return fmt.Errorf("banked: Ranks %d out of range [1,%d]", c.Ranks, maxBanks)
	}
	if c.Banks < 1 || c.Banks > maxBanks {
		return fmt.Errorf("banked: Banks %d out of range [1,%d]", c.Banks, maxBanks)
	}
	if total := int64(c.Channels) * int64(c.Ranks) * int64(c.Banks); total > maxBanks {
		return fmt.Errorf("banked: Channels %d × Ranks %d × Banks %d is %d banks, more than %d", c.Channels, c.Ranks, c.Banks, total, maxBanks)
	}
	if c.RowBytes < 64 || c.RowBytes > maxRowBytes || c.RowBytes&(c.RowBytes-1) != 0 {
		return fmt.Errorf("banked: RowBytes %d must be a power of two in [64,%d]", c.RowBytes, maxRowBytes)
	}
	if c.StripeBytes < 64 || c.StripeBytes > maxRowBytes || c.StripeBytes&(c.StripeBytes-1) != 0 {
		return fmt.Errorf("banked: StripeBytes %d must be a power of two in [64,%d]", c.StripeBytes, maxRowBytes)
	}
	if c.RowBytes%c.StripeBytes != 0 && c.StripeBytes%c.RowBytes != 0 {
		return fmt.Errorf("banked: StripeBytes %d and RowBytes %d must divide one another", c.StripeBytes, c.RowBytes)
	}
	if _, err := dram.Rate1024(c.BandwidthGBps, c.ClockGHz); err != nil {
		return fmt.Errorf("banked: %w", err)
	}
	if c.TCAS == 0 {
		return fmt.Errorf("banked: TCAS must be positive")
	}
	switch c.Layout {
	case LayoutLinear, LayoutSubtreePacked:
	default:
		return fmt.Errorf("banked: unknown layout %d", int(c.Layout))
	}
	return nil
}

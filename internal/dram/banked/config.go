// Package banked models main memory as banks with row-buffer state across
// channels — the co-design layer between the ORAM tree and the physical
// device. Where the flat model (internal/dram) charges every path access
// one serialized bulk transfer, this model schedules every bucket
// individually: reads stripe across channels, the write-back phase of one
// path overlaps the read phase of the next, and the physical tree layout
// decides whether consecutive buckets hit an open row or thrash a bank.
//
// The device has one geometry, a dual-channel DDR-style part: 2 channels
// of 16 GB/s each, one rank of 8 banks per channel, 4 KB rows,
// consecutive rows alternating channels, and tRCD = tCAS = tRP = 14 core
// cycles at 1 GHz (≈ 14 ns). Only the tree's layout is configurable.
//
// All times are in core clock cycles (uint64). The model is analytic and
// fully deterministic: completion times are pure integer functions of the
// access sequence, so replayed runs are byte-identical.
package banked

import "fmt"

// The device geometry. Every count is a power of two, so an address
// decomposes by shifts and masks.
const (
	// chanShift is log2 of the channel count.
	chanShift = 1
	channels  = 1 << chanShift
	// bankShift is log2 of the banks per channel (one rank of eight).
	bankShift    = 3
	banksPerChan = 1 << bankShift
	nBanks       = channels * banksPerChan
	// rowShift is log2 of the row-buffer (DRAM page) size, which is also
	// the channel-interleave stripe: one packed subtree stays on one
	// channel.
	rowShift = 12
	rowBytes = 1 << rowShift
	// alignBytes is the period after which the channel/bank decomposition
	// repeats: trees placed at multiples of it see identical striping.
	alignBytes = rowBytes * nBanks
)

// The device timing, in 1 GHz core cycles.
const (
	// rate1024 is one channel's 16 GB/s at 1 GHz in bytes per 1024
	// cycles, the fixed-point form dram.Config.RatePer1024 gives: all
	// transfer timing is exact integer ceil division, no float enters it.
	// The aggregate device bandwidth is channels× this, so the second
	// channel adds real pins to the flat model's one.
	rate1024 = 16 * 1024
	// tRCD is the activate-to-column delay (a row miss adds tRCD+tCAS).
	tRCD = 14
	// tCAS is the column-access latency every access pays.
	tCAS = 14
	// tRP is the precharge latency (a row conflict adds tRP on top of a miss).
	tRP = 14
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

// Config configures a banked device: the geometry is fixed, the tree's
// layout is not.
type Config struct {
	// Layout maps tree buckets to physical addresses.
	Layout Layout
}

// DefaultConfig returns the subtree-packed layout.
func DefaultConfig() Config {
	return Config{Layout: LayoutSubtreePacked}
}

// Validate reports whether the configuration is usable: the layout is
// one this package knows.
func (c Config) Validate() error {
	switch c.Layout {
	case LayoutLinear, LayoutSubtreePacked:
		return nil
	default:
		return fmt.Errorf("banked: unknown layout %d", int(c.Layout))
	}
}

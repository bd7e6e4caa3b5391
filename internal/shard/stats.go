package shard

import (
	"fmt"

	"proram/internal/dram/banked"
	"proram/internal/oram"
)

// PartitionStats is one partition's cumulative accounting.
type PartitionStats struct {
	// Reads and Writes are the logical requests this partition served;
	// CacheHits the subset answered without an ORAM access.
	Reads, Writes uint64
	CacheHits     uint64
	// RealAccesses and DummyAccesses are demand-round slot accesses
	// (demand reads plus victim write-backs, and padding respectively);
	// together they always total rounds × RoundSlots.
	RealAccesses  uint64
	DummyAccesses uint64
	// PadWritebacks is the part of RealAccesses that wrote a queued victim
	// back in a slot the round's misses left over: padding that did work.
	PadWritebacks uint64
	// FlushAccesses and FlushPad are flush-round write-backs and the
	// padding equalizing them across partitions.
	FlushAccesses uint64
	FlushPad      uint64
	// RequestErrors counts requests answered with an error.
	RequestErrors uint64
	// LocalBlocks is the number of local slots assigned so far.
	LocalBlocks uint64
	// StashSize is the partition stash occupancy at the last round barrier.
	StashSize int
	// ORAM is the partition controller's own statistics.
	ORAM oram.Stats
}

// Stats is the frontend-wide snapshot the dispatcher rebuilds at every
// round barrier.
type Stats struct {
	// Rounds and FlushRounds count completed scheduling rounds by kind.
	Rounds      uint64
	FlushRounds uint64
	// RoundSlots echoes the configured fixed per-partition access count.
	RoundSlots int
	// Reads, Writes, CacheHits aggregate the partition totals.
	Reads, Writes uint64
	CacheHits     uint64
	// RealAccesses/PadWritebacks/DummyAccesses/FlushAccesses/FlushPad
	// aggregate the partition slot accounting.
	RealAccesses  uint64
	PadWritebacks uint64
	DummyAccesses uint64
	FlushAccesses uint64
	FlushPad      uint64
	// Carryovers counts requests that missed their round's budget and were
	// requeued.
	Carryovers uint64
	// RequestErrors aggregates failed requests.
	RequestErrors uint64
	// Cycles is the maximum partition clock: the run's simulated makespan.
	Cycles uint64
	// Banked carries the shared banked device's row-buffer and channel
	// statistics when the frontend arbitrates onto one (BankedActive set).
	Banked       banked.Stats
	BankedActive bool
	// Partitions holds the per-partition breakdown, indexed by partition.
	Partitions []PartitionStats
}

// clone returns a deep copy (the snapshot is handed to callers that must
// not alias the dispatcher's slice).
func (s Stats) clone() Stats {
	c := s
	c.Partitions = append([]PartitionStats(nil), s.Partitions...)
	return c
}

// FillRatio is the useful fraction of demand-round bandwidth: real
// accesses over all slot accesses. Low fill means the workload (or the
// partitioning) left padding to do the talking.
func (s Stats) FillRatio() float64 {
	t := s.RealAccesses + s.DummyAccesses
	if t == 0 {
		return 0
	}
	return float64(s.RealAccesses) / float64(t)
}

// FillPermille is FillRatio in integer 1/1000ths, so that pinned reports
// stay byte-stable.
func (s Stats) FillPermille() uint64 {
	t := s.RealAccesses + s.DummyAccesses
	if t == 0 {
		return 0
	}
	return s.RealAccesses * 1000 / t
}

// Ops is the number of requests served.
func (s Stats) Ops() uint64 { return s.Reads + s.Writes }

// PadAccesses is all padding: demand-round dummies plus flush padding.
func (s Stats) PadAccesses() uint64 { return s.DummyAccesses + s.FlushPad }

// PathAccesses sums the partition controllers' path accesses.
func (s Stats) PathAccesses() uint64 {
	var t uint64
	for _, p := range s.Partitions {
		t += p.ORAM.PathAccesses
	}
	return t
}

// Validate checks the scheduler's accounting identities:
//
//	per partition: RealAccesses+DummyAccesses == Rounds×RoundSlots
//	per partition: PadWritebacks <= RealAccesses
//	across partitions: FlushAccesses+FlushPad all equal
//
// The first is the obliviousness contract (every partition issues the
// fixed count every demand round); the second says a pad-slot write-back
// is counted as the real access it is; the third says flush rounds were
// padded to a common length.
func (s Stats) Validate() error {
	want := s.Rounds * uint64(s.RoundSlots)
	var flushLen uint64
	for i, p := range s.Partitions {
		if got := p.RealAccesses + p.DummyAccesses; got != want {
			return fmt.Errorf("partition %d issued %d demand-round accesses over %d rounds, contract is %d",
				i, got, s.Rounds, want)
		}
		if p.PadWritebacks > p.RealAccesses {
			return fmt.Errorf("partition %d counts %d pad-slot write-backs among %d real accesses",
				i, p.PadWritebacks, p.RealAccesses)
		}
		fl := p.FlushAccesses + p.FlushPad
		if i == 0 {
			flushLen = fl
		} else if fl != flushLen {
			return fmt.Errorf("partition %d flush length %d differs from partition 0's %d", i, fl, flushLen)
		}
	}
	return nil
}

package oram

import "fmt"

// Stats aggregates everything the controller did. All path-access counters
// are in units of full path read+writes (the paper's unit of ORAM work and
// the proxy for memory-subsystem energy).
type Stats struct {
	// Requests.
	DemandReads uint64 // LLC-miss reads served
	Writebacks  uint64 // dirty LLC evictions written back

	// Path accesses by cause. PathAccesses is their sum.
	PathAccesses        uint64
	DataPaths           uint64 // demand data-tree paths
	WritebackPaths      uint64 // data paths caused by LLC writebacks
	PosMapPaths         uint64 // recursion (PLB-miss) paths
	PLBWritebackPaths   uint64 // always zero (the PLB is exclusive: a victim re-enters the stash); kept for the frozen benchmark, which reads it
	BackgroundEvictions uint64 // stash-pressure dummies
	DummyAccesses       uint64 // periodic-schedule dummies

	// Super block activity.
	Merges         uint64
	Breaks         uint64
	PrefetchIssued uint64 // blocks returned beyond the demand block
	PrefetchHits   uint64 // prefetched blocks later used in the LLC
	PrefetchUnused uint64 // prefetched blocks evicted from LLC unused
	ReloadedUnused uint64 // Algorithm 2 observations of unused prefetches
	ReloadedUsed   uint64 // Algorithm 2 observations of used prefetches

	// Structures.
	StashHighWater int
	PLBHits        uint64
	PLBMisses      uint64

	// Timing.
	BusyCycles uint64 // cycles the ORAM occupied the channel
	// KindCycles splits BusyCycles by the cause of the path access,
	// indexed by AccessKind; the entries sum to BusyCycles.
	KindCycles [NumKinds]uint64
	LastEnd    uint64 // completion time of the last path access
	BytesMoved uint64

	// OintTransitions counts adaptive-interval moves under the DynamicOint
	// extension — its declared timing leak is one bit per transition.
	OintTransitions uint64
}

// Validate checks the accounting identities that must hold for any
// cumulative snapshot taken through Controller.Stats:
//
//   - PathAccesses is exactly the sum of the per-kind counters: every path
//     access is classified once.
//   - Every demand read issues exactly one data path, every LLC writeback
//     exactly one writeback path.
//   - Resolved prefetch outcomes (hits + unused) never exceed issues.
//   - BusyCycles is exactly the sum of the per-kind cycles.
//
// It is called at the end of every simulation run, so a miscounted access
// surfaces as a run error instead of silently skewing a figure. The
// identities are for cumulative counters only: warmup-region deltas
// produced by Sub can resolve more prefetches than they issue.
func (s Stats) Validate() error {
	kinds := s.DataPaths + s.WritebackPaths + s.PosMapPaths +
		s.BackgroundEvictions + s.DummyAccesses
	if kinds != s.PathAccesses {
		return fmt.Errorf("oram: stats invariant: per-kind paths sum to %d, PathAccesses is %d", kinds, s.PathAccesses)
	}
	if s.DataPaths != s.DemandReads {
		return fmt.Errorf("oram: stats invariant: %d data paths for %d demand reads", s.DataPaths, s.DemandReads)
	}
	if s.WritebackPaths != s.Writebacks {
		return fmt.Errorf("oram: stats invariant: %d writeback paths for %d writebacks", s.WritebackPaths, s.Writebacks)
	}
	var cycles uint64
	for _, c := range s.KindCycles {
		cycles += c
	}
	if cycles != s.BusyCycles {
		return fmt.Errorf("oram: stats invariant: per-kind cycles sum to %d, BusyCycles is %d", cycles, s.BusyCycles)
	}
	if s.PrefetchHits+s.PrefetchUnused > s.PrefetchIssued {
		return fmt.Errorf("oram: stats invariant: %d+%d prefetch outcomes exceed %d issues",
			s.PrefetchHits, s.PrefetchUnused, s.PrefetchIssued)
	}
	return nil
}

// PrefetchMissRate returns the fraction of resolved prefetches that went
// unused (Figure 9's metric). Resolution happens when a prefetched block
// is either used in the LLC or evicted from it unused.
func (s Stats) PrefetchMissRate() float64 {
	total := s.PrefetchHits + s.PrefetchUnused
	if total == 0 {
		return 0
	}
	return float64(s.PrefetchUnused) / float64(total)
}

// AccessKind labels a path access in the recorded physical trace. The
// labels exist for internal accounting only: on the wire every kind is an
// identical full-path read+write and indistinguishable to the adversary.
type AccessKind uint8

const (
	KindData AccessKind = iota
	KindPosMap
	KindWriteback
	KindBackgroundEvict
	KindPeriodicDummy
	NumKinds // the number of kinds, not a kind
)

func (k AccessKind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindPosMap:
		return "posmap"
	case KindWriteback:
		return "writeback"
	case KindBackgroundEvict:
		return "bg-evict"
	case KindPeriodicDummy:
		return "dummy"
	default:
		return "unknown"
	}
}

// TraceEvent is one physical path access as the adversary sees it: a leaf
// (equivalently, a path) and when it started. Kind is internal metadata.
type TraceEvent struct {
	Leaf  uint64
	Start uint64
	Kind  AccessKind
}

// Result reports the outcome of one logical request.
type Result struct {
	// Done is the cycle at which the requested block is available (the end
	// of the data path access; later background evictions delay only
	// subsequent requests).
	Done uint64
	// Prefetched lists data-block indices returned to the LLC beyond the
	// demand block (super block siblings), in ascending order.
	Prefetched []uint64
	// PathCount is the number of path accesses this request triggered
	// (recursion + data + background evictions).
	PathCount int
}

// Sub returns the delta of s over an earlier snapshot: counters subtract,
// while point-in-time fields (StashHighWater, LastEnd) keep their current
// values. Used to measure a post-warmup region of interest.
func (s Stats) Sub(base Stats) Stats {
	d := s
	d.DemandReads -= base.DemandReads
	d.Writebacks -= base.Writebacks
	d.PathAccesses -= base.PathAccesses
	d.DataPaths -= base.DataPaths
	d.WritebackPaths -= base.WritebackPaths
	d.PosMapPaths -= base.PosMapPaths
	d.BackgroundEvictions -= base.BackgroundEvictions
	d.DummyAccesses -= base.DummyAccesses
	d.Merges -= base.Merges
	d.Breaks -= base.Breaks
	d.PrefetchIssued -= base.PrefetchIssued
	d.PrefetchHits -= base.PrefetchHits
	d.PrefetchUnused -= base.PrefetchUnused
	d.ReloadedUnused -= base.ReloadedUnused
	d.ReloadedUsed -= base.ReloadedUsed
	d.PLBHits -= base.PLBHits
	d.PLBMisses -= base.PLBMisses
	d.BusyCycles -= base.BusyCycles
	for k := range d.KindCycles {
		d.KindCycles[k] -= base.KindCycles[k]
	}
	d.BytesMoved -= base.BytesMoved
	d.OintTransitions -= base.OintTransitions
	return d
}

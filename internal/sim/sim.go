// Package sim wires the full secure-processor memory system together — the
// in-order core, the L1/LLC hierarchy, the optional stream prefetcher, and
// either insecure DRAM or the Path ORAM controller — and runs a workload
// trace to completion, producing the measurements every figure of the
// paper is built from.
package sim

import (
	"fmt"

	"proram/internal/cache"
	"proram/internal/cpu"
	"proram/internal/dram"
	"proram/internal/dram/banked"
	"proram/internal/obs"
	"proram/internal/oram"
	"proram/internal/prefetch"
	"proram/internal/superblock"
	"proram/internal/trace"
)

// Tech selects the main-memory technology.
type Tech int

const (
	// TechDRAM is the insecure baseline with bank-level parallelism.
	TechDRAM Tech = iota
	// TechORAM is the Path ORAM controller (with whatever super block
	// scheme its config selects).
	TechORAM
)

func (t Tech) String() string {
	if t == TechDRAM {
		return "dram"
	}
	return "oram"
}

// Config describes one simulated system.
type Config struct {
	Tech Tech
	// BlockBytes is the cacheline / ORAM block size.
	BlockBytes int
	// Hier is the cache hierarchy; its line size must equal BlockBytes.
	Hier cache.HierarchyConfig
	// DRAM is the memory channel (used directly in DRAM mode and as the
	// ORAM's channel model in ORAM mode).
	DRAM dram.Config
	// ORAM is the controller configuration (ORAM mode only); its
	// BlockBytes and DRAM fields are overwritten from the outer config to
	// keep the system self-consistent.
	ORAM oram.Config
	// Prefetch enables the traditional stream prefetcher of §5.2 when
	// non-nil. Mutually exclusive with an ORAM super block scheme.
	Prefetch *prefetch.Config
	// WarmupOps runs the first WarmupOps operations of the trace without
	// measuring them (caches fill, super blocks mature), mirroring the
	// region-of-interest methodology of architecture simulators. The
	// reported Cycles cover only the measured remainder.
	WarmupOps uint64
	// Obs attaches the observability recorder; nil (the default) disables
	// all instrumentation at the cost of one pointer check per site.
	Obs *obs.Recorder
	// ObsLabel names this system in multi-system traces; empty derives a
	// label from Tech.
	ObsLabel string
}

// DefaultConfig returns the paper's Table 1 system with the given memory
// technology and no prefetching.
func DefaultConfig(tech Tech) Config {
	o := oram.DefaultConfig()
	o.Prefill = true // the paper's ORAM is initialized (full tree)
	return Config{
		Tech:       tech,
		BlockBytes: 128,
		Hier:       cache.DefaultHierarchyConfig(),
		DRAM:       dram.DefaultConfig(),
		ORAM:       o,
	}
}

// oramConfig returns the controller configuration a TechORAM system runs:
// the ORAM field under the system's block size and DRAM channel.
func (c Config) oramConfig() oram.Config {
	o := c.ORAM
	o.BlockBytes = c.BlockBytes
	o.DRAM = c.DRAM
	return o
}

// Validate reports whether the configuration is coherent.
func (c Config) Validate() error {
	if c.BlockBytes < 8 {
		return fmt.Errorf("sim: BlockBytes %d too small", c.BlockBytes)
	}
	if err := c.Hier.Validate(); err != nil {
		return err
	}
	if c.Hier.L1.LineBytes != c.BlockBytes {
		return fmt.Errorf("sim: cacheline %d != block size %d", c.Hier.L1.LineBytes, c.BlockBytes)
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if c.Tech == TechORAM {
		if err := c.oramConfig().Validate(); err != nil {
			return err
		}
	}
	if c.Prefetch != nil {
		if err := c.Prefetch.Validate(); err != nil {
			return err
		}
		if c.Tech == TechORAM && c.ORAM.Super.Scheme != superblock.None {
			return fmt.Errorf("sim: stream prefetcher and super block scheme are mutually exclusive")
		}
	}
	return nil
}

// Report is everything a run measured.
type Report struct {
	// Core timing.
	Cycles        uint64
	MemOps        uint64
	ComputeCycles uint64

	// Cache behaviour.
	L1Hits    uint64
	L1Misses  uint64
	LLCHits   uint64
	LLCMisses uint64

	// Demand traffic reaching memory.
	MemReads  uint64
	MemWrites uint64

	// MemoryAccesses is the energy proxy the paper plots: ORAM path
	// accesses in ORAM mode, DRAM line accesses in DRAM mode.
	MemoryAccesses uint64

	// Stream prefetcher outcomes (Prefetch != nil only).
	StreamIssued uint64
	StreamHits   uint64
	StreamUnused uint64

	// Subsystem detail.
	ORAM oram.Stats
	DRAM dram.Stats
	// Banked carries the banked device's row-buffer and channel statistics
	// when the ORAM controller runs on one (ORAM.Banked set); zero otherwise.
	Banked banked.Stats
}

// PrefetchMissRate returns the resolved miss rate of whichever prefetching
// mechanism was active (super blocks or the stream prefetcher).
func (r Report) PrefetchMissRate() float64 {
	if r.StreamIssued > 0 {
		total := r.StreamHits + r.StreamUnused
		if total == 0 {
			return 0
		}
		return float64(r.StreamUnused) / float64(total)
	}
	return r.ORAM.PrefetchMissRate()
}

// memSystem implements cpu.MemSystem over the hierarchy and backing store.
type memSystem struct {
	cfg     Config
	hier    *cache.Hierarchy
	dram    *dram.Model
	ctrl    *oram.Controller
	pf      *prefetch.Stream
	pending map[uint64]uint64 // block index -> in-flight prefetch ready time
	rep     *Report
	scratch []uint64
	obs     *obs.Recorder // nil when observability is off

	superActive bool
	maxIndex    uint64 // addressable blocks (bounds the workload and prefetches)
	err         error  // the first workload address past maxIndex; ends the run
}

// New builds a runnable system.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hier, err := cache.NewHierarchy(cfg.Hier)
	if err != nil {
		return nil, err
	}
	m := &memSystem{
		cfg:     cfg,
		hier:    hier,
		pending: make(map[uint64]uint64),
		rep:     &Report{},
	}
	switch cfg.Tech {
	case TechDRAM:
		m.dram = dram.New(cfg.DRAM)
		m.maxIndex = ^uint64(0)
	case TechORAM:
		ocfg := cfg.oramConfig()
		ctrl, err := oram.New(ocfg)
		if err != nil {
			return nil, err
		}
		ctrl.SetProber(hier)
		m.ctrl = ctrl
		m.superActive = ocfg.Super.Scheme != superblock.None
		m.maxIndex = ocfg.NumBlocks
	default:
		return nil, fmt.Errorf("sim: unknown tech %d", cfg.Tech)
	}
	if cfg.Prefetch != nil {
		m.pf = prefetch.New(*cfg.Prefetch)
	}
	if cfg.Obs.Enabled() {
		m.attachObs(cfg.Obs, cfg.ObsLabel)
	}
	return &System{mem: m}, nil
}

// attachObs declares this system as a trace process and registers every
// component's metrics. BeginProcess must precede the registrations so that
// systems after the first get pid-namespaced names.
func (m *memSystem) attachObs(rec *obs.Recorder, label string) {
	if label == "" {
		label = m.cfg.Tech.String()
	}
	rec.BeginProcess(label)
	m.obs = rec
	if m.ctrl != nil {
		m.ctrl.SetRecorder(rec)
	}
	if m.pf != nil {
		rec.Counter("stream.issued", m.pf.Issued)
	}
	if m.dram != nil {
		rec.Counter("dram.accesses", func() uint64 { return m.dram.Stats().Accesses })
		rec.Counter("dram.bulk_transfers", func() uint64 { return m.dram.Stats().BulkTransfers })
		rec.Counter("dram.bytes_moved", func() uint64 { return m.dram.Stats().BytesMoved })
		// In DRAM mode the memory system owns the clock, so the utilization
		// series is sampled here (the ORAM controller samples its own).
		util := rec.Series("channel_utilization")
		var prevBusy, prevCycle uint64
		rec.OnSample(func(cycle uint64) {
			busy := m.dram.Stats().BusyCycles
			if cycle > prevCycle {
				util.Record(cycle, float64(busy-prevBusy)/float64(cycle-prevCycle))
			} else {
				util.Record(cycle, 0)
			}
			prevBusy, prevCycle = busy, cycle
		})
	}
}

// System is a configured simulator ready to run one trace.
type System struct {
	mem *memSystem
	ran bool
}

// ORAM exposes the controller (nil in DRAM mode) for white-box inspection.
func (s *System) ORAM() *oram.Controller { return s.mem.ctrl }

// Run executes the workload and returns the report. A System runs one
// trace; build a fresh one per experiment for a cold start. When
// WarmupOps is set, the first WarmupOps operations execute unmeasured and
// the report covers only the remainder. A trace that addresses memory past
// the ORAM's capacity (NumBlocks × BlockBytes) is an error.
func (s *System) Run(g trace.Generator) (Report, error) {
	if s.ran {
		return Report{}, fmt.Errorf("sim: System.Run called twice; build a fresh System")
	}
	s.ran = true

	var snap Report
	start := uint64(0)
	if w := s.mem.cfg.WarmupOps; w > 0 {
		warm := cpu.Run(trace.Take(g, w), s.mem, 0)
		start = warm.Cycles
		snap = s.mem.snapshot()
	}
	core := cpu.Run(g, s.mem, start)
	if s.mem.err != nil {
		return Report{}, s.mem.err
	}
	s.mem.finish(core.Cycles)

	cur := s.mem.snapshot()
	rep := Report{
		Cycles:        core.Cycles - start,
		MemOps:        core.MemOps,
		ComputeCycles: core.ComputeCycles,
		L1Hits:        cur.L1Hits - snap.L1Hits,
		L1Misses:      cur.L1Misses - snap.L1Misses,
		LLCHits:       cur.LLCHits - snap.LLCHits,
		LLCMisses:     cur.LLCMisses - snap.LLCMisses,
		MemReads:      cur.MemReads - snap.MemReads,
		MemWrites:     cur.MemWrites - snap.MemWrites,
		StreamIssued:  cur.StreamIssued - snap.StreamIssued,
		StreamHits:    cur.StreamHits - snap.StreamHits,
		StreamUnused:  cur.StreamUnused - snap.StreamUnused,
		ORAM:          cur.ORAM.Sub(snap.ORAM),
		DRAM:          cur.DRAM.Sub(snap.DRAM),
		Banked:        cur.Banked.Sub(snap.Banked),
	}
	if s.mem.ctrl != nil {
		rep.MemoryAccesses = rep.ORAM.PathAccesses
		// The accounting identities hold on cumulative counters (warmup
		// deltas can legitimately break the prefetch inequality), so check
		// before subtracting the warmup snapshot.
		if err := cur.ORAM.Validate(); err != nil {
			return Report{}, err
		}
	}
	if s.mem.dram != nil {
		rep.MemoryAccesses = rep.DRAM.Accesses
	}
	return rep, nil
}

// snapshot captures the current cumulative counters.
func (m *memSystem) snapshot() Report {
	rep := *m.rep
	rep.L1Hits = m.hier.L1().Hits()
	rep.L1Misses = m.hier.L1().Misses()
	rep.LLCHits = m.hier.LLC().Hits()
	rep.LLCMisses = m.hier.LLC().Misses()
	if m.ctrl != nil {
		rep.ORAM = m.ctrl.Stats()
		if bs, ok := m.ctrl.DeviceStats(); ok {
			rep.Banked = bs
		}
	}
	if m.dram != nil {
		rep.DRAM = m.dram.Stats()
	}
	return rep
}

// Access implements cpu.MemSystem.
func (m *memSystem) Access(now uint64, addr uint64, write bool) uint64 {
	idx := addr / uint64(m.cfg.BlockBytes)
	if idx >= m.maxIndex || m.err != nil {
		// The core has no error channel and the controller panics on a block
		// it does not hold: keep the first such address for Run to report
		// and let the rest of the trace drain untouched.
		if m.err == nil {
			m.err = fmt.Errorf("sim: workload address %#x is block %d, beyond the ORAM's capacity of %d blocks of %d bytes",
				addr, idx, m.maxIndex, m.cfg.BlockBytes)
		}
		return now
	}
	out := m.hier.Access(idx, write)
	if out.HitLevel > 0 {
		done := now + out.Latency
		if t, ok := m.pending[idx]; ok {
			// The line was filled by a still-in-flight prefetch: the data
			// arrives only when the memory system delivers it.
			delete(m.pending, idx)
			if t > done {
				done = t
			}
		}
		if out.PrefetchFirstUse {
			m.prefetchUsed(idx)
		}
		return done
	}
	delete(m.pending, idx)

	// Demand miss: both lookups happened before memory was consulted.
	issueAt := now + m.cfg.Hier.L1HitCycles + m.cfg.Hier.L2HitCycles
	var done uint64
	m.rep.MemReads++
	if m.cfg.Tech == TechDRAM {
		done = m.dram.Access(issueAt, addr, uint64(m.cfg.BlockBytes))
		m.applyOutcome(m.hier.Fill(idx, write), done)
		// In DRAM mode the memory system drives the sampler clock (the ORAM
		// controller does it itself in ORAM mode).
		m.obs.MaybeSample(done)
	} else {
		res := m.ctrl.Read(issueAt, idx)
		done = res.Done
		m.applyOutcome(m.hier.Fill(idx, write), done)
		for _, p := range res.Prefetched {
			m.applyOutcome(m.hier.FillPrefetch(p), done)
		}
	}
	if m.pf != nil {
		m.issueStreamPrefetches(idx, issueAt)
	}
	return done
}

// issueStreamPrefetches runs the traditional prefetcher on a demand miss.
func (m *memSystem) issueStreamPrefetches(idx uint64, issueAt uint64) {
	m.scratch = m.pf.OnMiss(idx, m.scratch[:0])
	for _, cand := range m.scratch {
		if cand >= m.maxIndex {
			continue
		}
		if m.hier.Present(cand) {
			continue
		}
		if _, inFlight := m.pending[cand]; inFlight {
			continue
		}
		var ready uint64
		if m.cfg.Tech == TechDRAM {
			// Spare bank/bus slots absorb the prefetch.
			ready = m.dram.Access(issueAt, cand*uint64(m.cfg.BlockBytes), uint64(m.cfg.BlockBytes))
		} else {
			// On ORAM the prefetch is a full access that occupies the
			// serialized controller — the Figure 5 effect.
			ready = m.ctrl.Read(issueAt, cand).Done
		}
		m.pending[cand] = ready
		m.rep.StreamIssued++
		m.applyOutcome(m.hier.FillPrefetch(cand), ready)
	}
}

// applyOutcome drains the side effects of a cache insertion: dirty LLC
// victims become memory writes, resolved prefetches update statistics.
func (m *memSystem) applyOutcome(out cache.AccessOutcome, when uint64) {
	for _, wb := range out.Writebacks {
		m.rep.MemWrites++
		if m.cfg.Tech == TechDRAM {
			m.dram.Access(when, wb*uint64(m.cfg.BlockBytes), uint64(m.cfg.BlockBytes))
		} else {
			m.ctrl.Write(when, wb)
		}
	}
	for _, pe := range out.PrefetchEvicted {
		m.prefetchUnused(pe)
	}
}

// prefetchUsed routes a resolved prefetch hit to whichever mechanism
// issued it.
func (m *memSystem) prefetchUsed(idx uint64) {
	if m.pf != nil {
		m.rep.StreamHits++
		return
	}
	if m.superActive {
		m.ctrl.NotifyPrefetchUse(idx)
	}
}

// prefetchUnused routes a resolved prefetch miss.
func (m *memSystem) prefetchUnused(idx uint64) {
	if m.pf != nil {
		m.rep.StreamUnused++
		return
	}
	if m.superActive {
		m.ctrl.NotifyPrefetchEvict(idx)
	}
}

// finish flushes the caches at program end so trailing dirty data and
// unresolved prefetches are accounted for.
func (m *memSystem) finish(end uint64) {
	writebacks, prefetchEvicted := m.hier.Flush()
	for _, wb := range writebacks {
		m.rep.MemWrites++
		if m.cfg.Tech == TechDRAM {
			m.dram.Access(end, wb*uint64(m.cfg.BlockBytes), uint64(m.cfg.BlockBytes))
		} else {
			m.ctrl.Write(end, wb)
		}
	}
	for _, pe := range prefetchEvicted {
		m.prefetchUnused(pe)
	}
}

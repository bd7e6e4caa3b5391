package proram

import (
	"fmt"
	"io"

	"proram/internal/obs"
	"proram/internal/obs/audit"
	"proram/internal/oram"
	"proram/internal/prefetch"
	"proram/internal/sim"
	"proram/internal/trace"
)

// Memory selects the simulated main-memory technology.
type Memory int

const (
	// MemoryORAM is the Path ORAM system (default).
	MemoryORAM Memory = iota
	// MemoryDRAM is the insecure baseline.
	MemoryDRAM
)

// SimConfig describes a simulated secure-processor memory system. Zero
// values mean the paper's Table 1 defaults.
type SimConfig struct {
	// Memory picks DRAM or ORAM.
	Memory Memory
	// Scheme selects the ORAM prefetcher (ignored for DRAM).
	Scheme Scheme
	// MaxSuperBlock bounds super block size (default 2).
	MaxSuperBlock int
	// StreamPrefetcher enables the traditional stream prefetcher of §5.2
	// (mutually exclusive with a super block Scheme).
	StreamPrefetcher bool
	// CacheLineBytes is the cacheline/ORAM-block size (default 128).
	CacheLineBytes int
	// ORAMBlocks is the ORAM capacity in blocks (default ~1.5M = 192 MB).
	ORAMBlocks uint64
	// Z and StashBlocks override Table 1's 3 and 100.
	Z           int
	StashBlocks int
	// BandwidthGBps overrides the 16 GB/s memory channel.
	BandwidthGBps float64
	// DRAM selects the device timing model behind the ORAM controller
	// (ignored for MemoryDRAM); nil is DRAMFlat.
	DRAM *DRAMConfig
	// Periodic enables timing-channel-protected (periodic) accesses with
	// the public interval Oint (cycles).
	Periodic bool
	Oint     uint64
	// WarmupOps runs a measured-region experiment: the first WarmupOps
	// operations execute unmeasured.
	WarmupOps uint64
	// Seed drives the ORAM randomness (zero means 1).
	Seed uint64
	// Obs enables the observability layer (metrics, time series, tracing,
	// flight recorder); nil runs un-instrumented. See ObsConfig.
	Obs *ObsConfig
	// Audit arms the obliviousness auditor over the recorded physical
	// trace of every Run (forces trace recording). Requires MemoryORAM;
	// the timing test arms only with Periodic (without it, completion
	// times are legitimately data-dependent). LeakDropDummies is a sharded
	// scheduler control and is rejected here. See AuditConfig.
	Audit *AuditConfig
}

// Simulator runs workloads on a configured memory system. Each Run builds
// a fresh system (cold caches, freshly initialized ORAM); runs share one
// observability recorder and appear in its trace as successive processes.
type Simulator struct {
	cfg        sim.Config
	rec        *obs.Recorder
	metricsOut io.Writer
	audit      *AuditConfig
	periodic   bool
}

// NewSimulator validates the configuration and returns a Simulator.
func NewSimulator(c SimConfig) (*Simulator, error) {
	tech := sim.TechORAM
	if c.Memory == MemoryDRAM {
		tech = sim.TechDRAM
	} else if c.Memory != MemoryORAM {
		return nil, fmt.Errorf("proram: unknown memory %d", int(c.Memory))
	}
	if err := c.Scheme.validate(); err != nil {
		return nil, err
	}
	cfg := sim.DefaultConfig(tech)
	if c.CacheLineBytes != 0 {
		cfg.BlockBytes = c.CacheLineBytes
		cfg.Hier.L1.LineBytes = c.CacheLineBytes
		cfg.Hier.L2.LineBytes = c.CacheLineBytes
	}
	if c.ORAMBlocks != 0 {
		cfg.ORAM.NumBlocks = c.ORAMBlocks
	}
	if c.Z != 0 {
		cfg.ORAM.Z = c.Z
	}
	if c.StashBlocks != 0 {
		cfg.ORAM.StashLimit = c.StashBlocks
	}
	if c.BandwidthGBps != 0 {
		cfg.DRAM.BandwidthGBps = c.BandwidthGBps
	}
	if c.Seed != 0 {
		cfg.ORAM.Seed = c.Seed
	}
	if err := c.DRAM.validate(); err != nil {
		return nil, err
	}
	cfg.ORAM.Banked = c.DRAM.bankedConfig()
	maxSB := c.MaxSuperBlock
	if maxSB == 0 {
		maxSB = 2
	}
	cfg.ORAM.Super = superblockConfig(c.Scheme, maxSB)
	if c.StreamPrefetcher {
		pf := prefetch.DefaultConfig()
		cfg.Prefetch = &pf
	}
	cfg.ORAM.Periodic = c.Periodic
	if c.Oint != 0 {
		cfg.ORAM.Oint = c.Oint
	}
	cfg.WarmupOps = c.WarmupOps
	if c.Audit != nil {
		if c.Memory == MemoryDRAM {
			return nil, fmt.Errorf("proram: Audit requires MemoryORAM (DRAM has no obliviousness to audit)")
		}
		if c.Audit.Leak == LeakDropDummies {
			return nil, fmt.Errorf("proram: LeakDropDummies is a sharded scheduler control; the unified simulator has no round padding to drop")
		}
		cfg.ORAM.RecordTrace = true
		cfg.ORAM.LeakBiasLeaf = c.Audit.Leak == LeakBiasLeaf
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{cfg: cfg, rec: c.Obs.recorder(), audit: c.Audit, periodic: c.Periodic}
	if c.Obs != nil {
		s.metricsOut = c.Obs.MetricsOut
		s.cfg.Obs = s.rec
	}
	return s, nil
}

// Result is what one simulation measured.
type Result struct {
	// Cycles is the completion time of the measured region.
	Cycles uint64
	// MemOps is the number of memory operations executed.
	MemOps uint64
	// LLCMisses is demand misses reaching memory.
	LLCMisses uint64
	// MemoryAccesses is the energy proxy: ORAM path accesses or DRAM line
	// accesses.
	MemoryAccesses uint64
	// ORAM carries the controller detail (zero for DRAM runs).
	ORAM Stats
	// StreamIssued/StreamHits report the traditional prefetcher.
	StreamIssued, StreamHits uint64
	// Audit is the obliviousness audit digest (nil unless SimConfig.Audit
	// armed the auditor).
	Audit *AuditReport
}

// Run executes one workload and returns the measurements. A workload that
// addresses memory beyond the ORAM's ORAMBlocks × CacheLineBytes is an
// error (SimulateSharded folds addresses onto its capacity instead).
func (s *Simulator) Run(w Workload) (Result, error) {
	gen, err := w.generator()
	if err != nil {
		return Result{}, err
	}
	cfg := s.cfg
	cfg.ObsLabel = w.Name
	system, err := sim.New(cfg)
	if err != nil {
		return Result{}, err
	}
	rep, err := system.Run(gen)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Cycles:         rep.Cycles,
		MemOps:         rep.MemOps,
		LLCMisses:      rep.LLCMisses,
		MemoryAccesses: rep.MemoryAccesses,
		ORAM:           statsFrom(rep.ORAM, rep.ORAM.DemandReads, rep.ORAM.Writebacks, 0),
		StreamIssued:   rep.StreamIssued,
		StreamHits:     rep.StreamHits,
	}
	if s.audit != nil {
		res.Audit, err = s.runAudit(system)
		if err != nil {
			return Result{}, err
		}
	}
	return res, nil
}

// runAudit replays the finished run's recorded physical trace through a
// fresh auditor: one scope, no round contract (the unified controller has
// no round scheduler), dummies labeled from the controller's own access
// kinds, and the timing test armed only under Periodic.
func (s *Simulator) runAudit(system *sim.System) (*AuditReport, error) {
	ctrl := system.ORAM()
	if ctrl == nil {
		return nil, fmt.Errorf("proram: audit requires an ORAM-backed system")
	}
	aud := s.audit.auditor(s.periodic, s.rec)
	if err := aud.Bind(1, ctrl.Leaves(), 0); err != nil {
		return nil, err
	}
	tr := ctrl.Trace()
	evs := make([]audit.AccessEvent, len(tr))
	for i, ev := range tr {
		evs[i] = audit.AccessEvent{
			Leaf:  ev.Leaf,
			Start: ev.Start,
			Dummy: ev.Kind == oram.KindPeriodicDummy || ev.Kind == oram.KindBackgroundEvict,
		}
	}
	aud.Accesses(0, evs)
	return finishAudit(aud, s.audit.Out)
}

// Workload is a deterministic memory reference stream for the Simulator.
type Workload struct {
	// Name labels the workload in reports.
	Name string
	// Ops is the stream length.
	Ops uint64

	factory func() trace.Generator
}

// generator starts a fresh pass over the stream. The zero Workload, which
// no constructor returns, has none.
func (w Workload) generator() (trace.Generator, error) {
	if w.factory == nil {
		return nil, fmt.Errorf("proram: zero Workload; use a workload constructor")
	}
	return w.factory(), nil
}

// SyntheticConfig parameterizes the paper's §5.3 microbenchmark.
type SyntheticConfig struct {
	Ops              uint64
	WorkingSetBytes  uint64
	LocalityFraction float64 // fraction of data accessed sequentially
	PhaseLen         uint64  // swap sequential/random halves every PhaseLen ops
	WriteFraction    float64
	Seed             uint64
}

// Synthetic builds the locality-controlled microbenchmark of Figure 6.
func Synthetic(c SyntheticConfig) (Workload, error) {
	tc := trace.SyntheticConfig{
		Ops:              c.Ops,
		WorkingSetBytes:  c.WorkingSetBytes,
		LocalityFraction: c.LocalityFraction,
		RunLen:           32,
		Gap:              6,
		WriteFraction:    c.WriteFraction,
		PhaseLen:         c.PhaseLen,
		Seed:             c.Seed + 1,
	}
	if tc.WorkingSetBytes == 0 {
		tc.WorkingSetBytes = 2 << 20
	}
	if tc.Ops == 0 {
		tc.Ops = 200_000
	}
	if err := tc.Validate(); err != nil {
		return Workload{}, err
	}
	return Workload{
		Name:    fmt.Sprintf("synthetic-%.0f%%", c.LocalityFraction*100),
		Ops:     tc.Ops,
		factory: func() trace.Generator { return trace.NewSynthetic(tc) },
	}, nil
}

// Splash2Workloads returns the modeled Splash2 suite (Figure 8a order).
func Splash2Workloads(ops uint64) []Workload {
	var out []Workload
	for _, p := range trace.Splash2(ops) {
		p := p
		out = append(out, Workload{Name: p.Name, Ops: p.Ops,
			factory: func() trace.Generator { return trace.NewModel(p) }})
	}
	return out
}

// SPEC06Workloads returns the modeled SPEC06 suite (Figure 8b order).
func SPEC06Workloads(ops uint64) []Workload {
	var out []Workload
	for _, p := range trace.SPEC06(ops) {
		p := p
		out = append(out, Workload{Name: p.Name, Ops: p.Ops,
			factory: func() trace.Generator { return trace.NewModel(p) }})
	}
	return out
}

// YCSBWorkload returns the modeled YCSB key-value workload.
func YCSBWorkload(ops uint64) Workload {
	cfg := trace.DefaultYCSB(ops)
	return Workload{Name: "YCSB", Ops: ops,
		factory: func() trace.Generator { return trace.NewYCSB(cfg) }}
}

// TPCCWorkload returns the modeled TPC-C order-entry workload.
func TPCCWorkload(ops uint64) Workload {
	p := trace.TPCC(ops)
	return Workload{Name: "TPCC", Ops: ops,
		factory: func() trace.Generator { return trace.NewModel(p) }}
}

// Op is one memory reference of a workload: Gap compute cycles followed by
// a read or write of the byte at Addr.
type Op struct {
	Gap   uint32
	Addr  uint64
	Write bool
}

// ForEach streams the workload's operations through f (a fresh pass each
// call; workloads are deterministic). The zero Workload streams nothing.
func (w Workload) ForEach(f func(Op)) {
	g, err := w.generator()
	if err != nil {
		return
	}
	for {
		op, ok := g.Next()
		if !ok {
			return
		}
		f(Op{Gap: op.Gap, Addr: op.Addr, Write: op.Write})
	}
}

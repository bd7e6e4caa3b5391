package main

import (
	"proram/internal/dram/banked"
	"proram/internal/oram"
	"proram/internal/sim"
	"proram/internal/superblock"
	"proram/internal/trace"
)

// chunkOps is the number of simulated memops timed together: one memop
// (a cache hit takes tens of nanoseconds) is below the clock's resolution,
// so the simulator workloads report per-memop latency over 64-memop chunks.
const chunkOps = 64

// simConfig is the simulated system: what proram.NewSimulator builds for
// the paper's Table 1 with the dynamic scheme, at the benchmark's size.
func simConfig(w workload, sz sizes, seed uint64) sim.Config {
	cfg := sim.DefaultConfig(sim.TechORAM)
	cfg.ORAM.NumBlocks = sz.simBlocks
	cfg.ORAM.Seed = nonzero(seed)
	sb := superblock.DefaultConfig()
	sb.MaxSize = 2
	cfg.ORAM.Super = sb
	if w.packed {
		b := banked.DefaultConfig()
		b.Layout = banked.LayoutSubtreePacked
		cfg.ORAM.Banked = &b
	}
	return cfg
}

func nonzero(seed uint64) uint64 {
	if seed == 0 {
		return 1
	}
	return seed
}

// windowGen wraps a trace so that the benchmark, not the trace length,
// decides when a simulator run ends: it times every chunk, closes a window
// every windowOps memops, calls atFixed after the fixed windows and ends
// the stream at the first window boundary past the deadline.
type windowGen struct {
	inner     trace.Generator
	windowOps uint64
	fixedOps  uint64
	deadline  int64
	atFixed   func()
	// ref, when set, is run after every window.
	ref *reference

	count                   uint64
	chunkStart, windowStart int64
	lat                     []int32
	stats                   []windowStat
	hash                    uint64
}

func newWindowGen(inner trace.Generator, windowOps, windows int) *windowGen {
	return &windowGen{
		inner:     inner,
		windowOps: uint64(windowOps),
		fixedOps:  uint64(windowOps) * uint64(windows),
		atFixed:   func() {},
		lat:       make([]int32, 0, windowOps/chunkOps),
		hash:      fnvOffset,
	}
}

// Next implements trace.Generator.
func (g *windowGen) Next() (trace.Op, bool) {
	if g.count%chunkOps == 0 && !g.boundary() {
		return trace.Op{}, false
	}
	op, ok := g.inner.Next()
	if ok {
		g.count++
		g.hash = fnvOp(g.hash, op.Addr, op.Write)
	}
	return op, ok
}

// Len implements trace.Generator.
func (g *windowGen) Len() uint64 { return g.inner.Len() }

// boundary closes the chunk (and window) that just ended. It reports
// false when the run is over.
func (g *windowGen) boundary() bool {
	t := now()
	if g.count == 0 {
		g.chunkStart, g.windowStart = t, t
		return true
	}
	g.lat = append(g.lat, int32(t-g.chunkStart))
	if g.count%g.windowOps == 0 {
		s := windowStat{ns: t - g.windowStart, lat: g.lat}
		if g.ref != nil {
			s.ref = g.ref.run()
		}
		g.stats = append(g.stats, s)
		g.lat = make([]int32, 0, cap(g.lat))
		if g.count == g.fixedOps {
			g.atFixed()
		}
		if g.count >= g.fixedOps && now() >= g.deadline {
			return false
		}
		t = now()
		g.windowStart = t
	}
	g.chunkStart = t
	return true
}

// checkReport verifies the accounting identities of a simulator report:
// the simulator moves no payload bytes, so its outputs are its counters.
func checkReport(res *result, rep sim.Report, generated uint64) {
	if rep.MemOps != generated {
		res.fail("simulator executed %d memops, trace produced %d", rep.MemOps, generated)
	}
	if rep.L1Hits+rep.L1Misses != rep.MemOps {
		res.fail("L1 hits+misses %d != memops %d", rep.L1Hits+rep.L1Misses, rep.MemOps)
	}
	if rep.LLCHits+rep.LLCMisses != rep.L1Misses {
		res.fail("LLC hits+misses %d != L1 misses %d", rep.LLCHits+rep.LLCMisses, rep.L1Misses)
	}
	if rep.MemReads != rep.LLCMisses || rep.ORAM.DemandReads != rep.LLCMisses {
		res.fail("LLC misses %d, memory reads %d, ORAM demand reads %d disagree", rep.LLCMisses, rep.MemReads, rep.ORAM.DemandReads)
	}
	if rep.MemWrites != rep.ORAM.Writebacks {
		res.fail("memory writes %d != ORAM write-backs %d", rep.MemWrites, rep.ORAM.Writebacks)
	}
	if rep.MemoryAccesses != rep.ORAM.PathAccesses {
		res.fail("memory accesses %d != ORAM path accesses %d", rep.MemoryAccesses, rep.ORAM.PathAccesses)
	}
	if err := rep.ORAM.Validate(); err != nil {
		res.fail("%v", err)
	}
}

// runSim is the untraced run of a simulator workload: build the system
// three times, run the trace in windows for the given time, check the
// report.
func runSim(w workload, sz sizes, o options) (*result, error) {
	res := newResult(w.name, o.seed, false)
	ref := newReference()
	refMem := readMem(true)
	cfg := simConfig(w, sz, o.seed)
	var sys *sim.System
	setup, err := setUp(sz, func() (func() error, error) {
		var err error
		sys, err = sim.New(cfg)
		return func() error { return nil }, err
	})
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup)

	windowOps := sz.windowOps[w.name]
	g := newWindowGen(simTrace(w, sz, o.seed), windowOps, sz.windows)
	g.ref = ref
	before := readMem(false)
	base := sys.ORAM().Stats()
	var after memSnap
	var fixed oram.Stats
	g.atFixed = func() {
		fixed = sys.ORAM().Stats()
		after = readMem(true)
	}
	g.deadline = now() + int64(o.seconds*1e9)
	rep, err := sys.Run(g)
	if err != nil {
		res.fail("simulator run: %v", err)
	}
	checkReport(res, rep, g.count)

	reportWindows(res, g.stats, windowOps, chunkOps)
	reportMem(res, refMem, before, after, g.fixedOps)
	res.set("path_accesses_per_op", measurement{Value: ratio(fixed.PathAccesses-base.PathAccesses, g.fixedOps), N: int(g.fixedOps)})
	res.Attempted = g.count
	res.StreamHash = g.hash
	return res, nil
}

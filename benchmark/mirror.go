package main

import (
	"container/list"
	"fmt"

	"proram"
	"proram/internal/cache"
	"proram/internal/cpu"
	"proram/internal/obs"
	"proram/internal/oram"
	"proram/internal/rng"
	"proram/internal/seal"
	"proram/internal/shard"
	"proram/internal/sim"
	"proram/internal/superblock"
	"proram/internal/trace"
)

// The mirrors below repeat, in the benchmark's own files, the thin code
// that sits between the public entry points and the layers underneath, so
// that a span can be put around every call into a layer without touching
// the program. The traced run checks after every run that a mirror still
// produces exactly the counters of the real frontend for the same inputs;
// a change to the real frontend that the mirror does not follow fails the
// traced run instead of silently measuring the wrong thing.

// libORAMConfig is the controller configuration proram.Config lowers to
// for the library workloads.
func libORAMConfig(sz sizes, seed uint64) oram.Config {
	o := oram.DefaultConfig()
	o.NumBlocks = sz.blocks
	o.BlockBytes = sz.blockBytes
	o.Z = 3
	o.StashLimit = 100
	o.Seed = nonzero(seed)
	sb := superblock.DefaultConfig()
	sb.MaxSize = 2
	o.Super = sb
	return o
}

// ramMirror mirrors proram.RAM (ram.go) over a shard.Store it builds
// itself, with the bodies of Store.DemandRead, WriteBack and Load written
// out so that the controller and the sealer get spans of their own.
type ramMirror struct {
	blocks      uint64
	bb          int
	cacheBlocks int
	store       *shard.Store
	cache       map[uint64]*list.Element
	lru         *list.List

	reads, writes, hits uint64

	tr *tracer
	// misses is the demand-miss index stream, the input of the posmap
	// replay.
	misses []uint64
}

type mirrorLine struct {
	index      uint64
	data       []byte
	dirty      bool
	prefetched bool
	used       bool
}

// newRAMMirror builds the mirror. record keeps the controller's physical
// trace; rec may be nil (observability off). The caller sets tr once the
// untraced set-up is done.
func newRAMMirror(sz sizes, seed uint64, record bool, rec *obs.Recorder) (*ramMirror, error) {
	o := libORAMConfig(sz, seed)
	o.RecordTrace = record
	ctrl, err := oram.New(o)
	if err != nil {
		return nil, err
	}
	sealer, err := seal.New(benchKey(seed), rng.NewReader(nonzero(seed)^0x5eed))
	if err != nil {
		return nil, err
	}
	m := &ramMirror{
		blocks:      sz.blocks,
		bb:          sz.blockBytes,
		cacheBlocks: sz.cacheBlocks,
		store:       shard.NewStore(ctrl, sealer, sz.blockBytes),
		cache:       make(map[uint64]*list.Element),
		lru:         list.New(),
	}
	ctrl.SetProber(m)
	if rec != nil {
		ctrl.SetRecorder(rec)
	}
	return m, nil
}

// Present implements oram.CacheProber over the client cache.
func (m *ramMirror) Present(index uint64) bool {
	_, ok := m.cache[index]
	return ok
}

func (m *ramMirror) Read(index uint64) ([]byte, error) {
	if index >= m.blocks {
		return nil, fmt.Errorf("mirror: block %d out of range", index)
	}
	m.reads++
	line, err := m.fetch(index)
	if err != nil {
		return nil, err
	}
	out := make([]byte, m.bb)
	copy(out, line.data)
	return out, nil
}

func (m *ramMirror) Write(index uint64, data []byte) error {
	if index >= m.blocks || len(data) > m.bb {
		return fmt.Errorf("mirror: bad write of %d bytes to block %d", len(data), index)
	}
	m.writes++
	line, err := m.fetch(index)
	if err != nil {
		return err
	}
	clear(line.data)
	copy(line.data, data)
	line.dirty = true
	return nil
}

func (m *ramMirror) fetch(index uint64) (*mirrorLine, error) {
	if e, ok := m.cache[index]; ok {
		m.hits++
		m.lru.MoveToFront(e)
		line := e.Value.(*mirrorLine)
		if line.prefetched && !line.used {
			line.used = true
			m.store.Ctrl.NotifyPrefetchUse(index)
		}
		return line, nil
	}
	if m.tr != nil {
		m.misses = append(m.misses, index)
	}
	// Store.DemandRead.
	sp := m.tr.begin(spanORAMRead)
	res := m.store.Ctrl.Read(m.store.Now, index)
	m.tr.end(sp)
	m.store.Now = res.Done

	line, err := m.install(index, false)
	if err != nil {
		return nil, err
	}
	for _, p := range res.Prefetched {
		if _, ok := m.cache[p]; ok {
			continue
		}
		if _, err := m.install(p, true); err != nil {
			return nil, err
		}
	}
	return line, nil
}

func (m *ramMirror) install(index uint64, prefetched bool) (*mirrorLine, error) {
	data, err := m.load(index)
	if err != nil {
		return nil, err
	}
	line := &mirrorLine{index: index, data: data, prefetched: prefetched}
	m.cache[index] = m.lru.PushFront(line)
	for m.lru.Len() > m.cacheBlocks {
		if err := m.evictLRU(); err != nil {
			return nil, err
		}
	}
	return line, nil
}

// load is Store.Load.
func (m *ramMirror) load(index uint64) ([]byte, error) {
	sp := m.tr.begin(spanLoad)
	defer m.tr.end(sp)
	data := make([]byte, m.bb)
	if sealed, ok := m.store.Sealed[index]; ok {
		so := m.tr.begin(spanOpen)
		plain, err := m.store.Sealer.Open(data[:0], sealed)
		m.tr.end(so)
		if err != nil {
			return nil, fmt.Errorf("mirror: block %d corrupt: %w", index, err)
		}
		data = plain
	}
	return data, nil
}

func (m *ramMirror) evictLRU() error {
	back := m.lru.Back()
	line := back.Value.(*mirrorLine)
	m.lru.Remove(back)
	delete(m.cache, line.index)
	if line.prefetched && !line.used {
		m.store.Ctrl.NotifyPrefetchEvict(line.index)
	}
	if !line.dirty {
		return nil
	}
	return m.writeBack(line.index, line.data)
}

// writeBack is Store.WriteBack.
func (m *ramMirror) writeBack(index uint64, data []byte) error {
	sp := m.tr.begin(spanSeal)
	sealed, err := m.store.Sealer.Seal(nil, data)
	m.tr.end(sp)
	if err != nil {
		return err
	}
	m.store.Sealed[index] = sealed
	sp = m.tr.begin(spanORAMWrite)
	res := m.store.Ctrl.Write(m.store.Now, index)
	m.tr.end(sp)
	m.store.Now = res.Done
	return nil
}

func (m *ramMirror) Flush() error {
	for e := m.lru.Front(); e != nil; e = e.Next() {
		line := e.Value.(*mirrorLine)
		if !line.dirty {
			continue
		}
		if err := m.writeBack(line.index, line.data); err != nil {
			return err
		}
		line.dirty = false
	}
	return nil
}

// publicStats renders the controller statistics the way the public
// frontends do (config.go's statsFrom), so a mirror and a real frontend
// can be compared field by field.
func publicStats(o oram.Stats, reads, writes, hits uint64) proram.Stats {
	return proram.Stats{
		Reads:               reads,
		Writes:              writes,
		CacheHits:           hits,
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

func (m *ramMirror) stats() proram.Stats {
	return publicStats(m.store.Ctrl.Stats(), m.reads, m.writes, m.hits)
}

// simMirror mirrors the ORAM branch of internal/sim's memory system (no
// stream prefetcher): the benchmark owns the cache hierarchy and the
// controller and implements cpu.MemSystem over them. Only LLC misses get
// spans: a cache hit takes tens of nanoseconds, less than reading the
// clock twice, so hits are timed in bulk by the layer replay instead.
type simMirror struct {
	cfg  sim.Config
	hier *cache.Hierarchy
	ctrl *oram.Controller
	gen  trace.Generator

	memReads, memWrites uint64
	miss                uint32
	core                cpu.Result

	tr     *tracer
	misses []uint64
}

// newSimMirror builds the mirror over its own trace. tr may be nil (no
// spans); rec may be nil (observability off).
func newSimMirror(cfg sim.Config, gen trace.Generator, tr *tracer, rec *obs.Recorder) (*simMirror, error) {
	hier, err := cache.NewHierarchy(cfg.Hier)
	if err != nil {
		return nil, err
	}
	ocfg := cfg.ORAM
	ocfg.BlockBytes = cfg.BlockBytes
	ocfg.DRAM = cfg.DRAM
	ocfg.RecordTrace = tr != nil
	ctrl, err := oram.New(ocfg)
	if err != nil {
		return nil, err
	}
	ctrl.SetProber(hier)
	if rec != nil {
		rec.BeginProcess(cfg.Tech.String())
		ctrl.SetRecorder(rec)
	}
	return &simMirror{cfg: cfg, hier: hier, ctrl: ctrl, gen: gen, tr: tr}, nil
}

// Access implements cpu.MemSystem.
func (m *simMirror) Access(now uint64, addr uint64, write bool) uint64 {
	idx := addr / uint64(m.cfg.BlockBytes)
	out := m.hier.Access(idx, write)
	if out.HitLevel > 0 {
		if out.PrefetchFirstUse {
			m.ctrl.NotifyPrefetchUse(idx)
		}
		return now + out.Latency
	}
	root := m.tr.beginOp(spanMiss, m.miss)
	m.miss++
	if m.tr != nil {
		m.misses = append(m.misses, idx)
	}
	issueAt := now + m.cfg.Hier.L1HitCycles + m.cfg.Hier.L2HitCycles
	m.memReads++
	sp := m.tr.begin(spanORAMRead)
	res := m.ctrl.Read(issueAt, idx)
	m.tr.end(sp)
	sp = m.tr.begin(spanFill)
	fill := m.hier.Fill(idx, write)
	m.tr.end(sp)
	m.apply(fill, res.Done)
	for _, p := range res.Prefetched {
		sp = m.tr.begin(spanFill)
		fill = m.hier.FillPrefetch(p)
		m.tr.end(sp)
		m.apply(fill, res.Done)
	}
	m.tr.end(root)
	return res.Done
}

// apply drains the side effects of a cache insertion.
func (m *simMirror) apply(out cache.AccessOutcome, when uint64) {
	for _, wb := range out.Writebacks {
		m.memWrites++
		sp := m.tr.begin(spanORAMWrite)
		m.ctrl.Write(when, wb)
		m.tr.end(sp)
	}
	for _, pe := range out.PrefetchEvicted {
		m.ctrl.NotifyPrefetchEvict(pe)
	}
}

// window runs the next n operations of the trace on the core model,
// continuing from the cycle the previous window ended at.
func (m *simMirror) window(n uint64) windowStat {
	t0 := now()
	r := cpu.Run(trace.Take(m.gen, n), m, m.core.Cycles)
	s := windowStat{ns: now() - t0}
	m.core.Cycles = r.Cycles
	m.core.MemOps += r.MemOps
	m.core.ComputeCycles += r.ComputeCycles
	return s
}

// finish ends the run the way sim.System.Run does, end-of-run cache flush
// included, and returns the comparable part of its report.
func (m *simMirror) finish() sim.Report {
	writebacks, prefetchEvicted := m.hier.Flush()
	for _, wb := range writebacks {
		m.memWrites++
		m.ctrl.Write(m.core.Cycles, wb)
	}
	for _, pe := range prefetchEvicted {
		m.ctrl.NotifyPrefetchEvict(pe)
	}
	rep := sim.Report{
		Cycles:        m.core.Cycles,
		MemOps:        m.core.MemOps,
		ComputeCycles: m.core.ComputeCycles,
		L1Hits:        m.hier.L1().Hits(),
		L1Misses:      m.hier.L1().Misses(),
		LLCHits:       m.hier.LLC().Hits(),
		LLCMisses:     m.hier.LLC().Misses(),
		MemReads:      m.memReads,
		MemWrites:     m.memWrites,
		ORAM:          m.ctrl.Stats(),
	}
	rep.MemoryAccesses = rep.ORAM.PathAccesses
	if bs, ok := m.ctrl.DeviceStats(); ok {
		rep.Banked = bs
	}
	return rep
}

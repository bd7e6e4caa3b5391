package main

import (
	"fmt"

	"proram"
	"proram/internal/obs"
	"proram/internal/oram"
	"proram/internal/rng"
	"proram/internal/shard"
	"proram/internal/sim"
)

// A traced run measures a fixed amount of work — the same fixed windows
// whose counters the untraced run reports — four ways: the real frontend
// with tracing off (the reference), the benchmark's mirror with spans
// around every call into a layer (the seam trace), the same workload with
// the observability recorder on, and the recorded streams replayed through
// each lower layer alone (replay.go). It ignores -seconds.

// obsOptions is what the CLIs' -obs flag turns on: metrics, the flight
// ring and the 50k-cycle sampler, no trace stream.
var obsOptions = obs.Options{SampleEvery: 50_000}

func runTraced(w workload, sz sizes, o options) (*result, error) {
	res := newResult(w.name, o.seed, true)
	var tracers []*tracer
	var err error
	switch w.kind {
	case kindRAM:
		tracers, err = tracedRAM(res, w, sz, o)
	case kindSharded:
		tracers, err = tracedSharded(res, w, sz, o)
	default:
		tracers, err = tracedSim(res, w, sz, o)
	}
	if err != nil {
		return nil, err
	}
	if o.traceOut != "" {
		if err := writeSpans(o.traceOut, tracers); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// interleave runs the fixed windows of several systems in turn, window by
// window, rotating which goes first: window k of every system is the same
// work (same seed) done within the same second, so the slow drift of a
// shared machine hits all of them alike and their ratio is meaningful.
func interleave(windows int, systems ...func() windowStat) [][]windowStat {
	ws := make([][]windowStat, len(systems))
	for k := 0; k < windows; k++ {
		for j := range systems {
			i := (j + k) % len(systems)
			ws[i] = append(ws[i], systems[i]())
		}
	}
	return ws
}

// overheadPct is the throughput a variant loses against the base, as the
// median over the paired windows, in percent.
func overheadPct(base, with []windowStat) float64 {
	var rel []float64
	for k := range base {
		rel = append(rel, float64(base[k].ns)/float64(with[k].ns))
	}
	return (1 - median(rel)) * 100
}

// exact records an integer ratio.
func exact(res *result, name string, num, den uint64) {
	res.set(name, measurement{Value: ratio(num, den), N: int(den)})
}

// reportORAM fills the controller's counter metrics from the statistics
// delta over ops operations that took cycles simulated cycles.
func reportORAM(res *result, d oram.Stats, ops, cycles uint64) {
	exact(res, "oram.read_calls_per_op", d.DemandReads, ops)
	exact(res, "oram.write_calls_per_op", d.Writebacks, ops)
	exact(res, "oram.sim_cycles_per_access", d.BusyCycles, d.PathAccesses)
	exact(res, "oram.sim_cycles_per_op", cycles, ops)
	exact(res, "oram.paths_data_per_op", d.DataPaths, ops)
	exact(res, "oram.paths_posmap_per_op", d.PosMapPaths, ops)
	exact(res, "oram.paths_writeback_per_op", d.WritebackPaths, ops)
	exact(res, "oram.paths_plbwb_per_op", d.PLBWritebackPaths, ops)
	exact(res, "oram.paths_bgevict_per_op", d.BackgroundEvictions, ops)
	exact(res, "oram.paths_dummy_per_op", d.DummyAccesses, ops)
	exact(res, "posmap.plb_hit_rate", d.PLBHits, d.PLBHits+d.PLBMisses)
	res.set("stash.high_water", measurement{Value: float64(d.StashHighWater), N: int(ops)})
	exact(res, "superblock.merges_per_kop", 1000*d.Merges, ops)
	exact(res, "superblock.breaks_per_kop", 1000*d.Breaks, ops)
	exact(res, "superblock.prefetch_issued_per_op", d.PrefetchIssued, ops)
	exact(res, "superblock.prefetch_hit_rate", d.PrefetchHits, d.PrefetchHits+d.PrefetchUnused)
	if kinds := d.DataPaths + d.PosMapPaths + d.WritebackPaths + d.PLBWritebackPaths + d.BackgroundEvictions + d.DummyAccesses; kinds != d.PathAccesses {
		res.fail("per-kind path counts sum to %d, path accesses are %d", kinds, d.PathAccesses)
	}
}

// reportSpans fills the controller's timing metrics from the seam trace.
func reportSpans(res *result, st *spanTotals, pathAccesses uint64, wall float64) {
	oramNS := float64(st.total[spanORAMRead] + st.total[spanORAMWrite])
	res.setValue("oram.read_ns_per_call", st.perCall(spanORAMRead))
	res.setValue("oram.write_ns_per_call", st.perCall(spanORAMWrite))
	res.setValue("oram.share", oramNS/wall)
	if pathAccesses > 0 {
		res.setValue("oram.ns_per_path_access", oramNS/float64(pathAccesses))
	}
}

// reportReplays runs the layer replays common to every workload.
func reportReplays(res *result, s streams, sz sizes, seed uint64, treeLeaves uint64) {
	s = s.capped(sz.replayCap)
	note := func(err error) {
		if err != nil {
			res.fail("layer replay: %v", err)
		}
	}
	walk, plb, err := replayPosmap(s)
	note(err)
	res.setValue("posmap.walk_ns", walk)
	res.setValue("posmap.plb_lookup_ns", plb)
	pathNS, err := replayTree(s, seed)
	note(err)
	res.setValue("tree.path_ns", pathNS)
	evict, placed, err := replayStash(s, seed)
	note(err)
	res.setValue("stash.evict_ns", evict)
	res.set("stash.placed_per_path", measurement{Value: placed, N: len(s.leaves)})
	if s.ocfg.Banked == nil {
		bulk, err := replayDRAM(s)
		note(err)
		res.setValue("dram.bulk_ns", bulk)
	} else {
		path, err := replayBanked(s)
		note(err)
		res.setValue("banked.path_ns", path)
	}
	ingest, err := replayAudit(s, treeLeaves)
	note(err)
	res.setValue("audit.ingest_ns_per_event", ingest)
}

// tracedRAM is the traced run of a unified-RAM workload.
func tracedRAM(res *result, w workload, sz sizes, o options) ([]*tracer, error) {
	ops := uint64(sz.windows * sz.windowOps[w.name])

	// Reference: the real public RAM, tracing off.
	ref, err := buildLibrary(w, sz, o.seed, proram.ShardedOptions{})
	if err != nil {
		return nil, err
	}
	// Seam trace: the mirror, populated untraced, then driven with spans.
	m, mr, err := buildMirror(w, sz, o.seed, true, nil)
	if err != nil {
		return nil, err
	}
	// Observability on: the mirror with a recorder and no spans.
	mo, or, err := buildMirror(w, sz, o.seed, false, obs.New(obsOptions))
	if err != nil {
		return nil, err
	}
	tr := newTracer(8 * int(ops))
	m.tr, mr.clients[0].spans = tr, tr
	ctrl := m.store.Ctrl
	base, hits0, cycle0, leaf0 := ctrl.Stats(), m.hits, m.store.Now, len(ctrl.Trace())

	ws := interleave(sz.windows, ref.window, mr.window, or.window)
	refWS, trWS, obsWS := ws[0], ws[1], ws[2]
	d := ctrl.Stats().Sub(base)
	m.tr = nil
	ref.finish(res)
	mr.finish(res)
	or.finish(res)

	// Trace fidelity: same inputs, same counters, or the mirror is stale.
	refStats := ref.inst.stats()
	if got := m.stats(); got != refStats {
		res.fail("trace fidelity: mirror counters %+v differ from the real RAM's %+v", got, refStats)
	}
	if got := mo.stats(); got != refStats {
		res.fail("observability changed the counters: %+v, without it %+v", got, refStats)
	}
	if err := m.Flush(); err != nil {
		res.fail("mirror flush: %v", err)
	}
	if err := ctrl.Stats().Validate(); err != nil {
		res.fail("%v", err)
	}
	if err := ctrl.CheckInvariant(); err != nil {
		res.fail("%v", err)
	}

	var st spanTotals
	tr.totals(&st)
	wall := totalNS(trWS)
	exact(res, "proram.cache_hit_rate", m.hits-hits0, ops)
	res.setValue("proram.cache_self_ns_per_op", float64(st.self[spanOp])/float64(ops))
	reportORAM(res, d, ops, m.store.Now-cycle0)
	reportSpans(res, &st, d.PathAccesses, wall)
	res.setValue("seal.seal_ns_per_call", st.perCall(spanSeal))
	res.setValue("seal.open_ns_per_call", st.perCall(spanOpen))
	exact(res, "seal.calls_per_op", st.count[spanSeal]+st.count[spanOpen], ops)
	res.setValue("seal.share", float64(st.total[spanSeal]+st.total[spanOpen])/wall)
	res.setValue("shard.store_load_ns_per_call", st.perCall(spanLoad))
	res.setValue("trace.overhead_pct", overheadPct(refWS, trWS))
	res.setValue("obs.overhead_pct", overheadPct(refWS, obsWS))

	s := streams{ocfg: ctrl.Config(), demand: m.misses, leaves: ctrl.Trace()[leaf0:]}
	reportReplays(res, s, sz, o.seed, ctrl.Leaves())
	return []*tracer{tr}, nil
}

// buildMirror builds and populates a RAM mirror with its driver.
func buildMirror(w workload, sz sizes, seed uint64, record bool, rec *obs.Recorder) (*ramMirror, *libRun, error) {
	m, err := newRAMMirror(sz, seed, record, rec)
	if err != nil {
		return nil, nil, err
	}
	r := newLibRun(w, sz, seed)
	r.inst = &instance{dev: m, stats: m.stats, close: noClose}
	return m, r, populate(w, sz, seed, m, r.clients[0])
}

// tracedSim is the traced run of a simulator workload.
func tracedSim(res *result, w workload, sz sizes, o options) ([]*tracer, error) {
	cfg := simConfig(w, sz, o.seed)
	windowOps := sz.windowOps[w.name]

	// The real system, start to finish: its report is what the mirrors
	// must reproduce.
	sys, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	g := newWindowGen(simTrace(w, sz, o.seed), windowOps, sz.windows)
	ref, err := sys.Run(g)
	if err != nil {
		res.fail("simulator run: %v", err)
	}
	checkReport(res, ref, g.count)
	ops := g.fixedOps
	res.Attempted += g.count
	res.StreamHash = g.hash

	// Three mirrors of the memory system, run window by window in turn:
	// plain (the untraced base), with spans on LLC misses (the seam
	// trace), and with the observability recorder on.
	t0 := now()
	plain, err := newSimMirror(cfg, simTrace(w, sz, o.seed), nil, nil)
	if err != nil {
		return nil, err
	}
	res.setValue("sim.prefill_s", float64(now()-t0)/1e9)
	tr := newTracer(int(ops))
	traced, err := newSimMirror(cfg, simTrace(w, sz, o.seed), tr, nil)
	if err != nil {
		return nil, err
	}
	observed, err := newSimMirror(cfg, simTrace(w, sz, o.seed), nil, obs.New(obsOptions))
	if err != nil {
		return nil, err
	}
	window := func(m *simMirror) func() windowStat {
		return func() windowStat { return m.window(uint64(windowOps)) }
	}
	ws := interleave(sz.windows, window(plain), window(traced), window(observed))
	fixed := traced.ctrl.Stats()
	for i, m := range []*simMirror{plain, traced, observed} {
		res.Attempted += ops
		if got := m.finish(); got != ref {
			res.fail("trace fidelity: report of mirror %d %+v differs from the real system's %+v", i, got, ref)
		}
	}
	if err := traced.ctrl.CheckInvariant(); err != nil {
		res.fail("%v", err)
	}

	var st spanTotals
	tr.totals(&st)
	reportORAM(res, fixed, ops, fixed.LastEnd)
	reportSpans(res, &st, fixed.PathAccesses, totalNS(ws[1]))
	exact(res, "cache.llc_miss_rate", ref.LLCMisses, ref.MemOps)
	res.set("banked.row_hit_rate", measurement{Value: ref.Banked.RowHitRate(), N: int(ref.Banked.Accesses)})
	res.setValue("trace.overhead_pct", overheadPct(ws[0], ws[1]))
	res.setValue("obs.overhead_pct", overheadPct(ws[0], ws[2]))

	traceNS, cpuNS, cacheNS, err := replayFrontEnd(w, sz, o.seed, cfg.Hier, ops)
	if err != nil {
		res.fail("layer replay: %v", err)
	}
	res.setValue("trace.next_ns", traceNS)
	res.setValue("cpu.null_run_ns_per_op", cpuNS)
	res.setValue("cache.access_ns", cacheNS)
	s := streams{ocfg: traced.ctrl.Config(), demand: traced.misses, leaves: traced.ctrl.Trace()}
	reportReplays(res, s, sz, o.seed, traced.ctrl.Leaves())
	return []*tracer{tr}, nil
}

// shardConfig is the frontend configuration proram.Config lowers to for
// the sharded workload (sharded.go's shardConfig).
func shardConfig(w workload, sz sizes, seed uint64) shard.Config {
	return shard.Config{
		Partitions:    2,
		Blocks:        sz.blocks,
		BlockBytes:    sz.blockBytes,
		CacheBlocks:   sz.cacheBlocks,
		MaxSuperBlock: 2,
		Key:           benchKey(seed),
		Seed:          nonzero(seed),
		ORAM:          libORAMConfig(sz, seed),
	}
}

// sumPartitions adds the partitions' controller statistics.
func sumPartitions(s shard.Stats) oram.Stats {
	var t oram.Stats
	for _, p := range s.Partitions {
		o := p.ORAM
		t.DemandReads += o.DemandReads
		t.Writebacks += o.Writebacks
		t.PathAccesses += o.PathAccesses
		t.DataPaths += o.DataPaths
		t.WritebackPaths += o.WritebackPaths
		t.PosMapPaths += o.PosMapPaths
		t.PLBWritebackPaths += o.PLBWritebackPaths
		t.BackgroundEvictions += o.BackgroundEvictions
		t.DummyAccesses += o.DummyAccesses
		t.Merges += o.Merges
		t.Breaks += o.Breaks
		t.PrefetchIssued += o.PrefetchIssued
		t.PrefetchHits += o.PrefetchHits
		t.PrefetchUnused += o.PrefetchUnused
		t.PLBHits += o.PLBHits
		t.PLBMisses += o.PLBMisses
		t.BusyCycles += o.BusyCycles
		if o.StashHighWater > t.StashHighWater {
			t.StashHighWater = o.StashHighWater
		}
	}
	return t
}

// tracedSharded is the traced run of the sharded workload. The partitions
// live inside the frontend, so the seam trace has only the client-side
// root spans; the scheduler is measured by shard.Replay of the run's
// recorded arrivals, and the controller and sealer by replay on a store of
// one partition's size.
func tracedSharded(res *result, w workload, sz sizes, o options) ([]*tracer, error) {
	ops := uint64(sz.windows * sz.windowOps[w.name])

	// Reference: the real public ShardedRAM, tracing off.
	ref, err := buildLibrary(w, sz, o.seed, proram.ShardedOptions{})
	if err != nil {
		return nil, err
	}
	// Seam trace: the internal frontend ShardedRAM wraps, recording its
	// arrivals, with a root span per operation on every client.
	scfg := shardConfig(w, sz, o.seed)
	scfg.RecordArrivals = true
	f, err := shard.New(scfg)
	if err != nil {
		return nil, err
	}
	tr := newLibRun(w, sz, o.seed)
	tr.inst = &instance{dev: f, close: f.Close}
	if err := warmSharded(sz, f, tr.clients); err != nil {
		return nil, err
	}
	// Observability on: the real public ShardedRAM with a recorder.
	or, err := buildLibrary(w, sz, o.seed, proram.ShardedOptions{Obs: &proram.ObsConfig{SampleEvery: obsOptions.SampleEvery}})
	if err != nil {
		return nil, err
	}
	var tracers []*tracer
	for _, c := range tr.clients {
		c.spans = newTracer(int(ops))
		tracers = append(tracers, c.spans)
	}
	base := f.Stats()
	ws := interleave(sz.windows, ref.window, tr.window, or.window)
	refWS, trWS, obsWS := ws[0], ws[1], ws[2]
	end := f.Stats()
	for _, r := range []*libRun{ref, tr, or} {
		r.finish(res)
		if err := r.inst.dev.Flush(); err != nil {
			res.fail("flush: %v", err)
		}
		if err := r.inst.close(); err != nil {
			res.fail("close: %v", err)
		}
	}
	final := f.Stats()
	if err := final.Validate(); err != nil {
		res.fail("%v", err)
	}
	if final.RequestErrors != 0 {
		res.fail("scheduler reported %d request errors", final.RequestErrors)
	}
	attempted, _, _, _ := tr.totals()
	if final.Reads+final.Writes != attempted {
		res.fail("trace fidelity: frontend served %d operations, clients issued %d", final.Reads+final.Writes, attempted)
	}

	// The scheduler with no client goroutines: replay the arrivals.
	arrivals := f.Arrivals()
	scfg.RecordArrivals = false
	t0 := now()
	log, rstats, err := shard.Replay(scfg, arrivals)
	replayNS := now() - t0
	if err != nil {
		res.fail("shard.Replay: %v", err)
	} else {
		res.setValue("shard.replay_ns_per_round", perEvent(replayNS, int(rstats.Rounds)))
	}

	d := sumPartitions(end).Sub(sumPartitions(base))
	d.StashHighWater = sumPartitions(end).StashHighWater
	wall := totalNS(trWS)
	realAcc, pad := end.RealAccesses-base.RealAccesses, end.DummyAccesses-base.DummyAccesses
	res.setValue("proram.cache_hit_rate", ratio(end.CacheHits-base.CacheHits, ops))
	reportORAM(res, d, ops, end.Cycles-base.Cycles)
	res.setValue("shard.rounds_per_kop", ratio(1000*(end.Rounds-base.Rounds), ops))
	res.setValue("shard.fill_permille", ratio(1000*realAcc, realAcc+pad))
	res.setValue("shard.pad_per_real", ratio(pad, realAcc))
	res.setValue("shard.carryovers", float64(end.Carryovers-base.Carryovers))
	res.setValue("trace.overhead_pct", overheadPct(refWS, trWS))
	res.setValue("obs.overhead_pct", overheadPct(refWS, obsWS))

	// One partition's controller and sealer, alone. A partition holds
	// Blocks/P plus 25% and 64 blocks of headroom (shard.build).
	p := uint64(scfg.Partitions)
	pcfg := scfg.ORAM
	pcfg.NumBlocks = sz.blocks/p + sz.blocks/(4*p) + 64
	readNS, writeNS, pathNS, err := replayController(pcfg, o.seed, sz.replayCap/8)
	if err != nil {
		res.fail("layer replay: %v", err)
	}
	sealNS, openNS, err := replaySeal(sz, o.seed, sz.replayCap/8)
	if err != nil {
		res.fail("layer replay: %v", err)
	}
	res.setValue("oram.read_ns_per_call", readNS)
	res.setValue("oram.write_ns_per_call", writeNS)
	res.setValue("oram.ns_per_path_access", pathNS)
	// Partitions run in parallel, so one partition's share of the calls
	// is what sits on the wall clock.
	res.setValue("oram.share", (float64(d.DemandReads)*readNS+float64(d.Writebacks)*writeNS)/float64(p)/wall)
	res.setValue("seal.seal_ns_per_call", sealNS)
	res.setValue("seal.open_ns_per_call", openNS)
	exact(res, "seal.calls_per_op", d.Writebacks, ops)
	res.setValue("seal.share", float64(d.Writebacks)*sealNS/float64(p)/wall)

	var indices, local []uint64
	for _, a := range arrivals {
		indices = append(indices, a.Index)
		local = append(local, a.Index/p)
	}
	if len(indices) > sz.replayCap {
		indices, local = indices[:sz.replayCap], local[:sz.replayCap]
	}
	lookup, err := replayPartMap(indices, scfg.Partitions, o.seed)
	if err != nil {
		res.fail("layer replay: %v", err)
	}
	res.setValue("shard.partmap_lookup_ns", lookup)
	load, err := replayStoreLoad(indices, sz, o.seed)
	if err != nil {
		res.fail("layer replay: %v", err)
	}
	res.setValue("shard.store_load_ns_per_call", load)

	// The lower-layer replays take partition 0's physical stream from the
	// replay log and the arrivals' indices folded into one partition's
	// local range as the demand stream.
	s := streams{ocfg: pcfg, demand: local}
	if log != nil {
		for _, rec := range log.Paths {
			if rec.Part == 0 {
				s.leaves = append(s.leaves, oram.TraceEvent{Leaf: rec.Leaf, Start: rec.Start, Kind: oram.AccessKind(rec.Kind)})
			}
		}
	}
	probe, err := oram.New(pcfg)
	if err != nil {
		return nil, err
	}
	reportReplays(res, s, sz, o.seed, probe.Leaves())
	return tracers, nil
}

// replayController times Controller.Read and Controller.Write on a
// controller of one partition's size over uniformly random blocks — what
// a padding slot does, and padding is most of the sharded ORAM work.
func replayController(cfg oram.Config, seed uint64, calls int) (readNS, writeNS, pathNS float64, err error) {
	ctrl, err := oram.New(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	rnd := rng.New(subSeed(seed, laneReplay+6))
	var cycle uint64
	// Touch every block once so the timed calls see a populated tree.
	for i := uint64(0); i < cfg.NumBlocks; i++ {
		cycle = ctrl.Write(cycle, i).Done
	}
	base := ctrl.Stats().PathAccesses
	t0 := now()
	for i := 0; i < calls; i++ {
		cycle = ctrl.Read(cycle, rnd.Uint64n(cfg.NumBlocks)).Done
	}
	t1 := now()
	for i := 0; i < calls; i++ {
		cycle = ctrl.Write(cycle, rnd.Uint64n(cfg.NumBlocks)).Done
	}
	t2 := now()
	paths := ctrl.Stats().PathAccesses - base
	if err := ctrl.Stats().Validate(); err != nil {
		return 0, 0, 0, fmt.Errorf("replayed controller: %w", err)
	}
	return perEvent(t1-t0, calls), perEvent(t2-t1, calls), perEvent(t2-t0, int(paths)), nil
}

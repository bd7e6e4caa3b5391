package main

import (
	"errors"

	"proram/internal/cache"
	"proram/internal/cpu"
	"proram/internal/dram"
	"proram/internal/dram/banked"
	"proram/internal/mem"
	"proram/internal/obs/audit"
	"proram/internal/oram"
	"proram/internal/posmap"
	"proram/internal/rng"
	"proram/internal/seal"
	"proram/internal/shard"
	"proram/internal/stash"
	"proram/internal/trace"
	"proram/internal/tree"
)

// Layer replay: the streams a traced run recorded — the demand-miss index
// stream and the physical leaf stream — are fed through instances of each
// lower layer that the benchmark builds itself, and every public call is
// timed. A layer is then measured alone, at the work the workload really
// gave it, with one clock read per batch instead of two per call.

// streams is what a traced run recorded for the replays.
type streams struct {
	// ocfg is the controller configuration the streams came from; it fixes
	// the geometry of the replayed position map and tree.
	ocfg oram.Config
	// demand holds the data-block indices the controller was asked for.
	demand []uint64
	// leaves is the physical path-access stream.
	leaves []oram.TraceEvent
}

// capped trims the streams to at most n events each.
func (s streams) capped(n int) streams {
	if len(s.demand) > n {
		s.demand = s.demand[:n]
	}
	if len(s.leaves) > n {
		s.leaves = s.leaves[:n]
	}
	return s
}

// sink keeps replay results alive so the compiler cannot drop the calls.
var sink uint64

func perEvent(totalNS int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(totalNS) / float64(n)
}

func (s streams) hierarchy() (*posmap.Hierarchy, error) {
	return posmap.New(posmap.Config{
		NumBlocks: s.ocfg.NumBlocks,
		Fanout:    s.ocfg.Fanout,
		OnChipMax: s.ocfg.OnChipEntries,
	})
}

// replayPosmap times the position-map walk (EntryFor/Parent up to the
// on-chip table) and the PLB probe-and-insert sequence of the controller's
// recursion, per demand index. The first pass materializes the blocks the
// stream touches, as the populate phase does in a real run; the second is
// timed.
func replayPosmap(s streams) (walkNS, plbNS float64, err error) {
	pm, err := s.hierarchy()
	if err != nil {
		return 0, 0, err
	}
	depth := pm.Depth()
	var t0 int64
	for pass := 0; pass < 2; pass++ {
		t0 = now()
		for _, idx := range s.demand {
			for l := 0; l < depth; l++ {
				sink += uint64(pm.EntryFor(l, idx).Leaf)
				idx, _ = pm.Parent(l, idx)
			}
			sink += uint64(pm.TopLeaf(idx))
		}
	}
	walkNS = perEvent(now()-t0, len(s.demand))

	plb := posmap.NewPLB(s.ocfg.PLBBlocks)
	fanout := uint64(s.ocfg.Fanout)
	chain := make([]uint64, depth+1)
	t0 = now()
	for _, idx := range s.demand {
		for l := 0; l <= depth; l++ {
			chain[l] = idx
			idx /= fanout
		}
		start := depth + 1
		for l := 1; l <= depth; l++ {
			if plb.Lookup(mem.MakeID(l, chain[l])) {
				start = l
				break
			}
		}
		for l := start - 1; l >= 1; l-- {
			plb.Insert(mem.MakeID(l, chain[l]))
		}
	}
	plbNS = perEvent(now()-t0, len(s.demand))
	return walkNS, plbNS, nil
}

// filledTree builds a tree of the stream's geometry holding every data
// block at a random leaf, deepest free bucket first, and returns the leaf
// table. Blocks whose whole path is full are left out (the real prefill
// sends them to the stash).
func filledTree(s streams, rnd *rng.Source) (*tree.Tree, []mem.Leaf, error) {
	pm, err := s.hierarchy()
	if err != nil {
		return nil, nil, err
	}
	levels := s.ocfg.TreeLevels(pm.TotalBlocks())
	tr := tree.New(levels, s.ocfg.Z)
	leafOf := make([]mem.Leaf, s.ocfg.NumBlocks)
	for i := range leafOf {
		leaf := mem.Leaf(rnd.Uint64n(tr.Leaves()))
		leafOf[i] = leaf
		placeDeepest(tr, leaf, mem.MakeID(0, uint64(i)))
	}
	return tr, leafOf, nil
}

func placeDeepest(tr *tree.Tree, leaf mem.Leaf, id mem.BlockID) bool {
	for depth := tr.Levels(); depth >= 0; depth-- {
		if tr.PlaceAt(leaf, depth, id) {
			return true
		}
	}
	return false
}

// replayTree times the tree alone: read a path out (RemovePath) and put
// the same blocks back (PlaceAt), per leaf of the stream.
func replayTree(s streams, seed uint64) (float64, error) {
	tr, _, err := filledTree(s, rng.New(subSeed(seed, laneReplay)))
	if err != nil {
		return 0, err
	}
	if err := s.checkLeaves(tr); err != nil {
		return 0, err
	}
	var buf []mem.BlockID
	t0 := now()
	for _, ev := range s.leaves {
		leaf := mem.Leaf(ev.Leaf)
		buf = tr.RemovePath(leaf, buf[:0])
		for _, id := range buf {
			placeDeepest(tr, leaf, id)
		}
	}
	return perEvent(now()-t0, len(s.leaves)), nil
}

// checkLeaves makes sure the stream fits the replayed tree: a mismatch
// means the benchmark's copy of the geometry no longer matches the
// program's.
func (s streams) checkLeaves(tr *tree.Tree) error {
	for _, ev := range s.leaves {
		if ev.Leaf >= tr.Leaves() {
			return errors.New("replay geometry is stale: a recorded leaf lies outside the replayed tree")
		}
	}
	return nil
}

// replayStash times the stash over a small but functionally valid Path
// ORAM: for every leaf of the stream the path's blocks enter the stash
// (Add), one of them is remapped, and the stash writes back onto the path
// (EvictToPath). The path read itself is the tree's work and not timed
// here. It returns the time and the blocks placed per path.
func replayStash(s streams, seed uint64) (evictNS, placedPerPath float64, err error) {
	rnd := rng.New(subSeed(seed, laneReplay+1))
	tr, leafOf, err := filledTree(s, rnd)
	if err != nil {
		return 0, 0, err
	}
	if err := s.checkLeaves(tr); err != nil {
		return 0, 0, err
	}
	st, err := stash.New(s.ocfg.StashLimit)
	if err != nil {
		return 0, 0, err
	}
	var buf []mem.BlockID
	var total int64
	placed := 0
	for _, ev := range s.leaves {
		leaf := mem.Leaf(ev.Leaf)
		buf = tr.RemovePath(leaf, buf[:0])
		t0 := now()
		for _, id := range buf {
			if err := st.Add(id, leafOf[id.Index()]); err != nil {
				return 0, 0, err
			}
		}
		if len(buf) > 0 {
			victim := buf[rnd.Intn(len(buf))]
			fresh := mem.Leaf(rnd.Uint64n(tr.Leaves()))
			leafOf[victim.Index()] = fresh
			st.SetLeaf(victim, fresh)
		}
		placed += st.EvictToPath(tr, leaf)
		total += now() - t0
	}
	return perEvent(total, len(s.leaves)), perEvent(int64(placed), len(s.leaves)), nil
}

// replaySeal times Seal and Open on one block-sized payload.
func replaySeal(sz sizes, seed uint64, calls int) (sealNS, openNS float64, err error) {
	sealer, err := seal.New(benchKey(seed), rng.NewReader(subSeed(seed, laneReplay+2)))
	if err != nil {
		return 0, 0, err
	}
	plain := make([]byte, sz.blockBytes)
	fillPayload(rng.New(subSeed(seed, laneReplay+3)), plain)
	var sealed []byte
	t0 := now()
	for i := 0; i < calls; i++ {
		if sealed, err = sealer.Seal(nil, plain); err != nil {
			return 0, 0, err
		}
	}
	sealNS = perEvent(now()-t0, calls)
	out := make([]byte, 0, sz.blockBytes)
	t0 = now()
	for i := 0; i < calls; i++ {
		if out, err = sealer.Open(out[:0], sealed); err != nil {
			return 0, 0, err
		}
	}
	openNS = perEvent(now()-t0, calls)
	sink += uint64(out[0])
	return sealNS, openNS, nil
}

// replayDRAM times the flat model's bulk transfer, one per path.
func replayDRAM(s streams) (float64, error) {
	pm, err := s.hierarchy()
	if err != nil {
		return 0, err
	}
	levels := s.ocfg.TreeLevels(pm.TotalBlocks())
	bytes := 2 * uint64(levels+1) * uint64(s.ocfg.Z) * uint64(s.ocfg.BlockBytes)
	extra := s.ocfg.DRAM.LatencyCycles + s.ocfg.CryptoLatency
	m := dram.New(s.ocfg.DRAM)
	var cycle uint64
	t0 := now()
	for range s.leaves {
		cycle = m.BulkTransfer(cycle, bytes, extra)
	}
	sink += cycle
	return perEvent(now()-t0, len(s.leaves)), nil
}

// replayBanked times the banked device's bucket-by-bucket path schedule,
// one per leaf of the stream.
func replayBanked(s streams) (float64, error) {
	pm, err := s.hierarchy()
	if err != nil {
		return 0, err
	}
	levels := s.ocfg.TreeLevels(pm.TotalBlocks())
	dev, err := banked.NewDevice(*s.ocfg.Banked, levels, s.ocfg.Z, s.ocfg.BlockBytes, s.ocfg.CryptoLatency)
	if err != nil {
		return 0, err
	}
	var cycle uint64
	t0 := now()
	for _, ev := range s.leaves {
		cycle = dev.Path(cycle, ev.Leaf).DataReady
	}
	sink += cycle
	return perEvent(now()-t0, len(s.leaves)), nil
}

// replayAudit times the auditor's ingest of the leaf stream.
func replayAudit(s streams, leaves uint64) (float64, error) {
	aud := audit.New(audit.Config{})
	if err := aud.Bind(1, leaves, 0); err != nil {
		return 0, err
	}
	evs := make([]audit.AccessEvent, len(s.leaves))
	for i, ev := range s.leaves {
		evs[i] = audit.AccessEvent{Leaf: ev.Leaf, Start: ev.Start,
			Dummy: ev.Kind == oram.KindPeriodicDummy || ev.Kind == oram.KindBackgroundEvict}
	}
	t0 := now()
	aud.Accesses(0, evs)
	return perEvent(now()-t0, len(evs)), nil
}

// replayPartMap times the oblivious partition lookup per request.
func replayPartMap(indices []uint64, partitions int, seed uint64) (float64, error) {
	pm, err := shard.NewPartitionMap(partitions, 0, subSeed(seed, laneReplay+4))
	if err != nil {
		return 0, err
	}
	t0 := now()
	for _, idx := range indices {
		sink += uint64(pm.Lookup(idx))
	}
	return perEvent(now()-t0, len(indices)), nil
}

// replayStoreLoad times shard.Store.Load (allocate, look up, decrypt) per
// request over a store holding every requested block sealed.
func replayStoreLoad(indices []uint64, sz sizes, seed uint64) (float64, error) {
	sealer, err := seal.New(benchKey(seed), rng.NewReader(subSeed(seed, laneReplay+5)))
	if err != nil {
		return 0, err
	}
	st := shard.NewStore(nil, sealer, sz.blockBytes)
	plain := make([]byte, sz.blockBytes)
	for _, idx := range indices {
		if _, ok := st.Sealed[idx]; ok {
			continue
		}
		if st.Sealed[idx], err = sealer.Seal(nil, plain); err != nil {
			return 0, err
		}
	}
	t0 := now()
	for _, idx := range indices {
		data, err := st.Load(idx)
		if err != nil {
			return 0, err
		}
		sink += uint64(data[0])
	}
	return perEvent(now()-t0, len(indices)), nil
}

// replayBatch is how many trace operations the simulator-side replays
// generate (untimed) before timing a layer over them.
const replayBatch = 4096

// sliceGen replays a batch of operations as a trace.Generator.
type sliceGen struct {
	ops []trace.Op
	i   int
}

func (g *sliceGen) Next() (trace.Op, bool) {
	if g.i >= len(g.ops) {
		return trace.Op{}, false
	}
	g.i++
	return g.ops[g.i-1], true
}

func (g *sliceGen) Len() uint64 { return uint64(len(g.ops)) }

// nullMem is a zero-latency memory system.
type nullMem struct{}

func (nullMem) Access(now uint64, _ uint64, _ bool) uint64 { return now }

// replayFrontEnd times the three layers in front of the controller in the
// simulator, each alone over the same n trace operations: the generator
// (Next), the core model against a zero-latency memory (cpu.Run), and the
// cache hierarchy (Access, plus Fill on a miss).
func replayFrontEnd(w workload, sz sizes, seed uint64, hcfg cache.HierarchyConfig, n uint64) (traceNS, cpuNS, cacheNS float64, err error) {
	hier, err := cache.NewHierarchy(hcfg)
	if err != nil {
		return 0, 0, 0, err
	}
	g := simTrace(w, sz, seed)
	batch := make([]trace.Op, replayBatch)
	line := uint64(hcfg.L1.LineBytes)
	var tTrace, tCPU, tCache int64
	var cycle, done uint64
	for done < n {
		t0 := now()
		for i := range batch {
			batch[i], _ = g.Next()
		}
		t1 := now()
		cycle = cpu.Run(&sliceGen{ops: batch}, nullMem{}, cycle).Cycles
		t2 := now()
		for _, op := range batch {
			idx := op.Addr / line
			if hier.Access(idx, op.Write).HitLevel == 0 {
				hier.Fill(idx, op.Write)
			}
		}
		t3 := now()
		tTrace += t1 - t0
		tCPU += t2 - t1
		tCache += t3 - t2
		done += replayBatch
	}
	sink += cycle
	return perEvent(tTrace, int(done)), perEvent(tCPU, int(done)), perEvent(tCache, int(done)), nil
}

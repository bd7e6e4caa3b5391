package main

import (
	"encoding/binary"

	"proram/internal/rng"
	"proram/internal/trace"
)

// sizes holds every size knob of the five workloads. main uses fullSizes;
// the tests substitute a configuration about a hundredth of it.
type sizes struct {
	// Library workloads: address space, client cache and block size.
	blocks      uint64
	cacheBlocks int
	blockBytes  int
	// Simulated system: ORAM capacity and the synthetic working set.
	simBlocks     uint64
	simWorkingSet uint64
	// windows is the number of fixed windows every run measures before the
	// clock may end it; exact metrics cover exactly these.
	windows int
	// windowOps is the number of operations per window, by workload: 10 to
	// 25 ms of work, short enough that some windows of every run fall
	// between the neighbours' bursts (metrics.go's quietShare).
	windowOps map[string]int
	// shardWarm is the number of warm-up operations each client of the
	// sharded workload issues during set-up.
	shardWarm int
	// setupRuns is how many fresh instances set-up builds at least, and
	// setupSeconds how long it keeps building more (library.go's setUp);
	// the median time is reported and the last instance is kept.
	setupRuns    int
	setupSeconds float64
	// replayCap bounds the events one layer replay times.
	replayCap int
}

func fullSizes() sizes {
	return sizes{
		blocks:        1 << 16,
		cacheBlocks:   4096,
		blockBytes:    128,
		simBlocks:     1_500_000,
		simWorkingSet: 8 << 20,
		windows:       200,
		windowOps: map[string]int{
			"ram_uniform_rw":  1_024,
			"ram_scan_ro":     2_560,
			"sharded_zipf_rw": 256,
			"sim_locality":    1_024,
			"sim_ycsb_packed": 8_192,
		},
		shardWarm:    8_000,
		setupRuns:    3,
		setupSeconds: 2,
		replayCap:    200_000,
	}
}

type pattern int

const (
	patUniform pattern = iota
	patScan
	patZipf
	patSynthetic
	patYCSB
)

type kind int

const (
	kindRAM kind = iota
	kindSharded
	kindSim
)

// workload is one row of the workload table. The why text is repeated in
// BENCHMARK.json and README.md.
type workload struct {
	name    string
	kind    kind
	pattern pattern
	clients int
	// writeFraction is the share of library operations that are writes.
	writeFraction float64
	// packed selects the banked, subtree-packed DRAM device (simulator).
	packed bool
	why    string
}

var workloads = []workload{
	{name: "ram_uniform_rw", kind: kindRAM, pattern: patUniform, clients: 1, writeFraction: 0.5,
		why: "uniform random over 16x the client cache: ~94% of ops miss, host time sits in oram+seal, the prefetcher is bypassed"},
	{name: "ram_scan_ro", kind: kindRAM, pattern: patScan, clients: 1,
		why: "sequential read-only scan: merged super blocks turn ~half the ops into client-cache hits, no seals, heavy background eviction"},
	{name: "sharded_zipf_rw", kind: kindSharded, pattern: patZipf, clients: 2, writeFraction: 0.5,
		why: "two closed-loop clients on two partitions: the only workload where the shard scheduler and its round padding are on the path"},
	{name: "sim_locality", kind: kindSim, pattern: patSynthetic, clients: 1,
		why: "paper Table 1 system, flat DRAM, 50% locality synthetic trace: LLC miss rate ~63%, so the oram controller dominates host time"},
	{name: "sim_ycsb_packed", kind: kindSim, pattern: patYCSB, clients: 1, packed: true,
		why: "same system on the banked packed DRAM device with the YCSB trace: LLC miss rate ~14%, so cpu+cache+trace and the banked device show"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// subSeed derives an independent seed for one purpose (lane) of a run, so
// the op stream, the payload bytes and the populate order never share a
// generator state.
func subSeed(seed uint64, lane uint64) uint64 {
	return rng.New(seed + lane*0x9e3779b97f4a7c15).Uint64()
}

const (
	laneOps = iota + 1
	lanePayload
	lanePopulate
	laneKey
	laneReplay
)

// op is one generated library operation.
type op struct {
	index uint32
	write bool
}

// opSource generates one client's operations. It is the whole interface
// between the seed and the program under test: the program sees only the
// indices and read/write choices that come out of next.
type opSource struct {
	pat    pattern
	rnd    *rng.Source
	blocks uint64
	writes float64
	cursor uint64
	// Zipf clients own the residue class offset mod stride; ranks are
	// scrambled over the class by an odd multiplier so that popular blocks
	// are not address neighbours.
	zipf           *rng.Zipf
	stride, offset uint64
	mult, add      uint64
	// hash is a running FNV-1a fingerprint of everything generated.
	hash uint64
}

func newOpSource(w workload, sz sizes, seed uint64, client int) *opSource {
	s := &opSource{
		pat:    w.pattern,
		rnd:    rng.New(subSeed(seed, laneOps+16*uint64(client))),
		blocks: sz.blocks,
		writes: w.writeFraction,
		hash:   fnvOffset,
	}
	switch w.pattern {
	case patScan:
		// The scan wraps the whole address space; the seed picks where
		// it starts.
		s.cursor = s.rnd.Uint64n(sz.blocks)
	case patZipf:
		s.stride = uint64(w.clients)
		s.offset = uint64(client)
		n := sz.blocks / s.stride
		s.zipf = rng.NewZipf(s.rnd.Fork(), n, 0.99)
		s.mult = s.rnd.Uint64() | 1
		s.add = s.rnd.Uint64()
	}
	return s
}

func (s *opSource) next() op {
	var o op
	switch s.pat {
	case patScan:
		o.index = uint32(s.cursor)
		s.cursor = (s.cursor + 1) % s.blocks
	case patZipf:
		n := s.blocks / s.stride
		slot := (s.zipf.Next()*s.mult + s.add) % n
		o.index = uint32(slot*s.stride + s.offset)
	default:
		o.index = uint32(s.rnd.Uint64n(s.blocks))
	}
	if s.writes > 0 {
		o.write = s.rnd.Float64() < s.writes
	}
	s.hash = fnvOp(s.hash, uint64(o.index), o.write)
	return o
}

// fnvOp folds one generated operation into an FNV-1a style fingerprint of
// the op stream.
func fnvOp(h, addr uint64, write bool) uint64 {
	h = (h ^ addr) * fnvPrime
	if write {
		h = (h ^ 1) * fnvPrime
	}
	return h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (s *opSource) fill(dst []op) {
	for i := range dst {
		dst[i] = s.next()
	}
}

// fillPayload writes deterministic pseudo-random bytes.
func fillPayload(rnd *rng.Source, buf []byte) {
	for len(buf) >= 8 {
		binary.LittleEndian.PutUint64(buf, rnd.Uint64())
		buf = buf[8:]
	}
	for i := range buf {
		buf[i] = byte(rnd.Uint64())
	}
}

// traceLen is the nominal length of the simulator traces: far more than a
// run consumes, so the windowing generator alone decides when one ends.
const traceLen = 1 << 40

// simTrace builds the simulator workload's reference stream.
func simTrace(w workload, sz sizes, seed uint64) trace.Generator {
	if w.pattern == patYCSB {
		cfg := trace.DefaultYCSB(traceLen)
		cfg.Seed = subSeed(seed, laneOps)
		return trace.NewYCSB(cfg)
	}
	return trace.NewSynthetic(trace.SyntheticConfig{
		Ops:              traceLen,
		WorkingSetBytes:  sz.simWorkingSet,
		LocalityFraction: 0.5,
		RunLen:           32,
		Gap:              6,
		WriteFraction:    0.3,
		Seed:             subSeed(seed, laneOps),
	})
}

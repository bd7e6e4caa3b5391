package proram

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"proram/internal/obs"
	"proram/internal/obs/audit"
	"proram/internal/shard"
	"proram/internal/sim"
)

// ShardedRAM is the concurrent oblivious RAM: the block address space is
// partitioned across Config.Partitions independent Path ORAM controllers
// (each with its own stash, position map, and PrORAM prefetcher), and a
// batching scheduler serves any number of concurrent goroutines in padded
// rounds. Every round, every partition performs exactly Config.RoundSlots
// indistinguishable ORAM accesses — demand work plus dummy padding — so
// the cross-partition access sequence leaks nothing about the request mix
// beyond the total number of rounds. A miss takes one slot; the dirty
// blocks its installs evict wait in a victim queue and are written back in
// slots that would otherwise be dummies, which is why the default round
// is two slots wide (one miss, one write-back) rather than wide enough for
// a miss's worst-case evictions.
//
// ShardedRAM is safe for concurrent use. Safety comes from confinement,
// not locking hot state: each partition's ORAM is owned by one worker
// goroutine, the dispatcher alone forms rounds, and clients only ever
// touch admission queues and reply channels.
type ShardedRAM struct {
	cfg      Config
	f        *shard.Frontend
	out      shardedOutputs
	auditRep *AuditReport

	closeOnce sync.Once
	closeErr  error
}

// ShardedOptions tunes the concurrent frontend beyond Config, for
// NewSharded and for SimulateSharded.
type ShardedOptions struct {
	// Obs enables scheduler metrics and tracing; outputs are finalized by
	// Close, or before SimulateSharded returns.
	Obs *ObsConfig
	// Audit arms the live obliviousness auditor; its report is finalized
	// by Close, which then also fails when the audit does, or returned in
	// SimulateSharded's report. See AuditConfig.
	Audit *AuditConfig
}

// shardedOutputs is what ShardedOptions asked of one frontend: the
// recorder and auditor lowered into its shard.Config, and where their
// artifacts go once the run is over.
type shardedOutputs struct {
	rec        *obs.Recorder
	metricsOut io.Writer
	aud        *audit.Auditor
	auditOut   io.Writer
}

// lower installs the options into scfg and returns the outputs to finish.
func (opt ShardedOptions) lower(scfg *shard.Config) shardedOutputs {
	out := shardedOutputs{rec: opt.Obs.recorder()}
	out.aud = opt.Audit.auditor(scfg.Banked == nil, out.rec)
	scfg.Recorder = out.rec
	scfg.Audit = out.aud
	if opt.Obs != nil {
		out.metricsOut = opt.Obs.MetricsOut
	}
	if opt.Audit != nil {
		out.auditOut = opt.Audit.Out
	}
	return out
}

// finish writes the audit report, the metrics dump and the end of the
// trace. The error is the first failed write; the audit's verdict travels
// in the digest (nil when no auditor was armed).
func (o shardedOutputs) finish() (*AuditReport, error) {
	rep, err := finishAudit(o.aud, o.auditOut)
	if oerr := finishObs(o.rec, o.metricsOut); err == nil {
		err = oerr
	}
	return rep, err
}

// NewSharded builds a partitioned oblivious RAM. Close it to stop the
// scheduler goroutines and finalize observability outputs.
func NewSharded(cfg Config, opt ShardedOptions) (*ShardedRAM, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	scfg := cfg.shardConfig()
	out := opt.lower(&scfg)
	f, err := shard.New(scfg)
	if err != nil {
		return nil, err
	}
	return &ShardedRAM{cfg: cfg, f: f, out: out}, nil
}

// Blocks returns the capacity in blocks.
func (s *ShardedRAM) Blocks() uint64 { return s.cfg.Blocks }

// BlockBytes returns the block size.
func (s *ShardedRAM) BlockBytes() int { return s.cfg.BlockBytes }

// Read returns a copy of the block at index. Safe for concurrent use.
func (s *ShardedRAM) Read(index uint64) ([]byte, error) {
	return s.f.Read(index)
}

// Write stores data (at most BlockBytes; shorter slices are zero-padded)
// into the block at index. Safe for concurrent use.
func (s *ShardedRAM) Write(index uint64, data []byte) error {
	return s.f.Write(index, data)
}

// ReadAt implements byte-granular reads across block boundaries. Each
// block is read through the scheduler individually; a concurrent writer
// can interleave between blocks. A read cut short by the end of the
// device returns io.EOF.
func (s *ShardedRAM) ReadAt(p []byte, off int64) (int, error) {
	return readAt(s, s.cfg, p, off)
}

// WriteAt implements byte-granular writes across block boundaries via
// per-block read-modify-write. The per-block update is not atomic against
// concurrent WriteAt calls overlapping the same block; callers that need
// atomicity serialize at block granularity.
func (s *ShardedRAM) WriteAt(p []byte, off int64) (int, error) {
	return writeAt(s, s.cfg, p, off)
}

// Flush writes every dirty cached block back through the ORAMs, with all
// partitions padded to the same access count. It waits for a gap in
// admissions, so flush under sustained load from other goroutines blocks.
func (s *ShardedRAM) Flush() error { return s.f.Flush() }

// Close drains queued requests, stops the scheduler and workers, and
// finalizes observability and audit outputs. Requests admitted after
// Close fail. When an auditor was armed and its verdict is a failure,
// Close writes the report, keeps it available via Audit, and returns the
// failure as its error. Only the first call does any of this; later calls
// return its error and write nothing.
func (s *ShardedRAM) Close() error {
	s.closeOnce.Do(func() { s.closeErr = s.finish() })
	return s.closeErr
}

// finish is the body of the first Close.
func (s *ShardedRAM) finish() error {
	err := s.f.Close()
	rep, oerr := s.out.finish()
	s.auditRep = rep
	if err == nil {
		err = oerr
	}
	if err == nil {
		err = rep.Err()
	}
	return err
}

// Audit returns the audit digest. It is nil until Close finalizes the
// report (or when no auditor was armed).
func (s *ShardedRAM) Audit() *AuditReport { return s.auditRep }

// Stats aggregates usage statistics across partitions into the same shape
// the unified RAM reports. DummyAccesses includes the scheduler's round
// padding on top of the controllers' own timing-channel dummies.
func (s *ShardedRAM) Stats() Stats {
	sch := s.f.Stats()
	var agg Stats
	agg.Reads = sch.Reads
	agg.Writes = sch.Writes
	agg.CacheHits = sch.CacheHits
	agg.DummyAccesses = sch.PadAccesses()
	agg.PathAccesses = sch.PathAccesses()
	for _, p := range sch.Partitions {
		agg.BackgroundEvictions += p.ORAM.BackgroundEvictions
		agg.DummyAccesses += p.ORAM.DummyAccesses
		agg.Merges += p.ORAM.Merges
		agg.Breaks += p.ORAM.Breaks
		agg.PrefetchIssued += p.ORAM.PrefetchIssued
		agg.PrefetchHits += p.ORAM.PrefetchHits
		agg.PrefetchUnused += p.ORAM.PrefetchUnused
		if p.ORAM.StashHighWater > agg.StashHighWater {
			agg.StashHighWater = p.ORAM.StashHighWater
		}
	}
	return agg
}

// SchedStats reports the scheduler's own accounting.
func (s *ShardedRAM) SchedStats() SchedStats {
	return schedStatsFrom(s.cfg.Partitions, s.f.Stats())
}

// shardConfig lowers the public configuration to the internal frontend's.
func (c Config) shardConfig() shard.Config {
	o := c.oramConfig()
	return shard.Config{
		Partitions:  c.Partitions,
		RoundSlots:  c.RoundSlots,
		Blocks:      c.Blocks,
		BlockBytes:  c.BlockBytes,
		CacheBlocks: c.CacheBlocks,
		Key:         c.sealKey(),
		Seed:        c.Seed,
		ORAM:        o,
		Banked:      c.DRAM.bankedConfig(),
	}
}

func schedStatsFrom(parts int, sch shard.Stats) SchedStats {
	return SchedStats{
		Partitions:    parts,
		RoundSlots:    sch.RoundSlots,
		Rounds:        sch.Rounds,
		FlushRounds:   sch.FlushRounds,
		RealAccesses:  sch.RealAccesses,
		PadWritebacks: sch.PadWritebacks,
		PadAccesses:   sch.PadAccesses(),
		Carryovers:    sch.Carryovers,
		CacheHits:     sch.CacheHits,
		Cycles:        sch.Cycles,
		FillRatio:     sch.FillRatio(),
		RequestErrors: sch.RequestErrors,
	}
}

// ShardedSimReport summarizes one closed-loop sharded simulation.
type ShardedSimReport struct {
	// Ops is the number of workload operations served.
	Ops uint64
	// PathAccesses sums the partitions' full recursive ORAM accesses.
	PathAccesses uint64
	// Sched is the scheduler's accounting (rounds, padding, makespan).
	Sched SchedStats
	// Audit is the obliviousness audit digest (nil unless
	// ShardedOptions.Audit armed the auditor).
	Audit *AuditReport
}

// SimulateSharded replays a workload's memory trace through a partitioned
// frontend under a closed-loop admission model: `clients` concurrent
// clients each keep one request outstanding, so every scheduling round
// admits the next `clients` operations of the trace. Workload addresses
// are folded onto the capacity: an operation touches block
// (Addr / BlockBytes) mod Blocks. The run is deterministic — it uses the
// replay scheduler, so the same workload, configuration and client count
// always produce the same report.
//
// opt.Obs and opt.Audit observe the run as they would a ShardedRAM; the
// metrics dump, the trace and the audit report are complete when
// SimulateSharded returns. The audit digest is returned even when the
// audit fails — the error reports operational failures only, so callers
// (the CLIs, CI) decide how a failed verdict exits.
func SimulateSharded(cfg Config, w Workload, clients int, opt ShardedOptions) (ShardedSimReport, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return ShardedSimReport{}, err
	}
	gen, err := w.generator()
	if err != nil {
		return ShardedSimReport{}, err
	}
	scfg := cfg.shardConfig()
	out := opt.lower(&scfg)
	st, err := sim.RunSharded(scfg, gen, clients)
	if err != nil {
		return ShardedSimReport{}, err
	}
	r := ShardedSimReport{Ops: st.Ops(), PathAccesses: st.PathAccesses(), Sched: schedStatsFrom(cfg.Partitions, st)}
	r.Audit, err = out.finish()
	return r, err
}

// SchedStats summarizes what the sharded scheduler did: round counts, the
// real/padding split of the fixed per-round bandwidth, and the simulated
// makespan (the slowest partition's clock). PadWritebacks is the part of
// RealAccesses that wrote an evicted dirty block back in a slot the
// round's misses left over.
type SchedStats struct {
	Partitions    int
	RoundSlots    int
	Rounds        uint64
	FlushRounds   uint64
	RealAccesses  uint64
	PadWritebacks uint64
	PadAccesses   uint64
	Carryovers    uint64
	CacheHits     uint64
	Cycles        uint64
	FillRatio     float64
	RequestErrors uint64
}

// blockDevice is the block-level API shared by RAM and ShardedRAM, used
// by the byte-granular adapters.
type blockDevice interface {
	Read(index uint64) ([]byte, error)
	Write(index uint64, data []byte) error
}

var errNegativeOffset = errors.New("proram: negative offset")

func errBeyondCapacity(off int64) error {
	return fmt.Errorf("proram: offset %d beyond capacity", off)
}

// readAt implements byte-granular reads over any block device. A read
// the end of the device cuts short returns io.EOF, as io.ReaderAt asks.
func readAt(d blockDevice, cfg Config, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errNegativeOffset
	}
	bb := int64(cfg.BlockBytes)
	n := 0
	for n < len(p) {
		block := uint64((off + int64(n)) / bb)
		inner := (off + int64(n)) % bb
		if block >= cfg.Blocks {
			return n, io.EOF
		}
		data, err := d.Read(block)
		if err != nil {
			return n, err
		}
		n += copy(p[n:], data[inner:])
	}
	return n, nil
}

// writeAt implements byte-granular read-modify-write over any block device.
func writeAt(d blockDevice, cfg Config, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errNegativeOffset
	}
	bb := int64(cfg.BlockBytes)
	n := 0
	for n < len(p) {
		block := uint64((off + int64(n)) / bb)
		inner := (off + int64(n)) % bb
		if block >= cfg.Blocks {
			return n, errBeyondCapacity(off + int64(n))
		}
		data, err := d.Read(block)
		if err != nil {
			return n, err
		}
		c := copy(data[inner:], p[n:])
		if err := d.Write(block, data); err != nil {
			return n, err
		}
		n += c
	}
	return n, nil
}

package proram

import (
	"errors"
	"fmt"
	"io"
	"sync"

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
// beyond the total number of rounds.
//
// ShardedRAM is safe for concurrent use. Safety comes from confinement,
// not locking hot state: each partition's ORAM is owned by one worker
// goroutine, the dispatcher alone forms rounds, and clients only ever
// touch admission queues and reply channels.
type ShardedRAM struct {
	cfg        Config
	f          *shard.Frontend
	metricsOut io.Writer
	aud        *audit.Auditor
	auditOut   io.Writer
	auditRep   *AuditReport

	closeOnce sync.Once
	closeErr  error
}

// ShardedOptions tunes the concurrent frontend beyond Config.
type ShardedOptions struct {
	// RecordArrivals keeps the admission log that makes the run
	// replayable (see internal/shard.Replay).
	RecordArrivals bool
	// RecordAccesses keeps the canonical global access sequence.
	RecordAccesses bool
	// Obs enables scheduler metrics and tracing; outputs are finalized by
	// Close.
	Obs *ObsConfig
	// Audit arms the live obliviousness auditor; its report is finalized
	// by Close, which then also fails when the audit does. See AuditConfig.
	Audit *AuditConfig
}

// NewSharded builds a partitioned oblivious RAM. Close it to stop the
// scheduler goroutines and finalize observability outputs.
func NewSharded(cfg Config, opt ShardedOptions) (*ShardedRAM, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	scfg := cfg.shardConfig()
	scfg.RecordArrivals = opt.RecordArrivals
	scfg.RecordAccesses = opt.RecordAccesses
	scfg.Recorder = opt.Obs.recorder()
	scfg.Audit = opt.Audit.auditor(scfg.Banked == nil, scfg.Recorder)
	if opt.Audit != nil {
		scfg.Leak = opt.Audit.Leak.internal()
	}
	f, err := shard.New(scfg)
	if err != nil {
		return nil, err
	}
	s := &ShardedRAM{cfg: cfg, f: f, aud: scfg.Audit}
	if opt.Obs != nil {
		s.metricsOut = opt.Obs.MetricsOut
	}
	if opt.Audit != nil {
		s.auditOut = opt.Audit.Out
	}
	return s, nil
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
// can interleave between blocks.
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
	if s.aud != nil {
		rep, aerr := finishAudit(s.aud, s.auditOut)
		s.auditRep = rep
		if err == nil {
			err = aerr
		}
		if err == nil {
			err = rep.Err()
		}
	}
	if rec := s.f.Recorder(); rec.Enabled() {
		if s.metricsOut != nil {
			if werr := rec.WriteMetrics(s.metricsOut); err == nil {
				err = werr
			}
		}
		if cerr := rec.CloseTrace(); err == nil {
			err = cerr
		}
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
	agg.DummyAccesses = sch.DummyAccesses + sch.FlushPad
	for _, p := range sch.Partitions {
		agg.PathAccesses += p.ORAM.PathAccesses
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
		Partitions:    c.Partitions,
		RoundSlots:    c.RoundSlots,
		Blocks:        c.Blocks,
		BlockBytes:    c.BlockBytes,
		CacheBlocks:   c.CacheBlocks,
		MaxSuperBlock: o.Super.MaxSize,
		Key:           c.sealKey(),
		Seed:          c.Seed,
		ORAM:          o,
		Banked:        c.DRAM.bankedConfig(),
	}
}

func schedStatsFrom(parts int, sch shard.Stats) SchedStats {
	return SchedStats{
		Partitions:    parts,
		RoundSlots:    sch.RoundSlots,
		Rounds:        sch.Rounds,
		FlushRounds:   sch.FlushRounds,
		RealAccesses:  sch.RealAccesses,
		PadAccesses:   sch.DummyAccesses + sch.FlushPad,
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
}

// SimulateSharded replays a workload's memory trace through a partitioned
// frontend under a closed-loop admission model: `clients` concurrent
// clients each keep one request outstanding, so every scheduling round
// admits the next `clients` operations of the trace. The run is
// deterministic — it uses the replay scheduler, so the same workload,
// configuration and client count always produce the same report.
func SimulateSharded(cfg Config, w Workload, clients int) (ShardedSimReport, error) {
	r, _, err := simulateSharded(cfg, w, clients, nil)
	return r, err
}

// SimulateShardedAudited is SimulateSharded with the obliviousness
// auditor tapped into the run. The report digest is returned even when
// the audit fails — the error reports operational failures only, so
// callers (the CLIs, CI) decide how a failed verdict exits.
func SimulateShardedAudited(cfg Config, w Workload, clients int, ac AuditConfig) (ShardedSimReport, *AuditReport, error) {
	return simulateSharded(cfg, w, clients, &ac)
}

// simulateSharded is the one sharded-simulation body; a nil ac runs
// unaudited and returns a nil digest.
func simulateSharded(cfg Config, w Workload, clients int, ac *AuditConfig) (ShardedSimReport, *AuditReport, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return ShardedSimReport{}, nil, err
	}
	scfg := cfg.shardConfig()
	scfg.Audit = ac.auditor(scfg.Banked == nil, nil)
	var auditOut io.Writer
	if ac != nil {
		scfg.Leak = ac.Leak.internal()
		auditOut = ac.Out
	}
	rep, _, err := sim.RunSharded(scfg, w.generator(), clients)
	if err != nil {
		return ShardedSimReport{}, nil, err
	}
	r := ShardedSimReport{Ops: rep.Ops, Sched: schedStatsFrom(cfg.Partitions, rep.Stats)}
	for _, p := range rep.Stats.Partitions {
		r.PathAccesses += p.ORAM.PathAccesses
	}
	pub, aerr := finishAudit(scfg.Audit, auditOut)
	return r, pub, aerr
}

// SchedStats summarizes what the sharded scheduler did: round counts, the
// real/padding split of the fixed per-round bandwidth, and the simulated
// makespan (the slowest partition's clock).
type SchedStats struct {
	Partitions    int
	RoundSlots    int
	Rounds        uint64
	FlushRounds   uint64
	RealAccesses  uint64
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

// readAt implements byte-granular reads over any block device.
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
			return n, errBeyondCapacity(off + int64(n))
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

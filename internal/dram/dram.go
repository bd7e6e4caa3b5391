// Package dram models main-memory timing the way the paper's Graphite
// setup does: a flat access latency plus a pin-bandwidth constraint
// (16 GB/s at 1 GHz ⇒ 16 bytes/cycle by default), with bank-level
// parallelism available to the insecure DRAM baseline and a fully
// serialized bulk-transfer mode used by the ORAM controller.
//
// All times are in core clock cycles (uint64). The model is analytic: it
// computes completion times, it does not move data.
package dram

import "fmt"

// Config describes a DRAM device and the channel connecting it to the chip.
type Config struct {
	// LatencyCycles is the flat access latency of one DRAM access
	// (row activation + column read + transfer of one line), 100 in the paper.
	LatencyCycles uint64
	// BandwidthGBps is the pin bandwidth of the memory channel, 16 in the paper.
	BandwidthGBps float64
	// ClockGHz is the core clock used to convert bandwidth into bytes/cycle.
	ClockGHz float64
	// Banks is the number of banks that can serve independent accesses in
	// parallel in the insecure baseline. The paper's Graphite DRAM model
	// exploits bank-level parallelism; 8 is a typical value.
	Banks int
}

// DefaultConfig returns the paper's Table 1 DRAM parameters.
func DefaultConfig() Config {
	return Config{
		LatencyCycles: 100,
		BandwidthGBps: 16,
		ClockGHz:      1,
		Banks:         8,
	}
}

// BytesPerCycle converts the configured bandwidth into channel bytes per
// core cycle.
func (c Config) BytesPerCycle() float64 {
	return c.BandwidthGBps / c.ClockGHz
}

// maxRate1024 bounds the fixed-point rate: 2^40 bytes per 1024 cycles is a
// petabyte per second at 1 GHz, and leaves bytes·1024 + rate far inside
// uint64 for any transfer the simulator issues.
const maxRate1024 = 1 << 40

// Rate1024 converts a channel bandwidth into bytes moved per 1024 cycles,
// the fixed-point form all transfer timing is computed in. It is the one
// place a float becomes an integer, at configuration time; every
// per-access division is pure integer arithmetic, so timing can never
// drift across platforms. NaN, ±Inf, non-positive inputs and a rate
// outside [1, 2^40] are errors: converting them to uint64 is
// implementation-defined.
func Rate1024(bandwidthGBps, clockGHz float64) (uint64, error) {
	r := bandwidthGBps/clockGHz*1024 + 0.5
	// One conjunction, negated, so that a NaN anywhere fails it.
	if !(bandwidthGBps > 0 && clockGHz > 0 && r >= 1 && r <= maxRate1024) {
		return 0, fmt.Errorf("BandwidthGBps %v at ClockGHz %v is not a finite rate of 1 to 2^40 bytes per 1024 cycles", bandwidthGBps, clockGHz)
	}
	return uint64(r), nil
}

// RatePer1024 returns the channel rate in the fixed-point form of
// Rate1024, 0 for a configuration Validate refuses.
func (c Config) RatePer1024() uint64 {
	r, _ := Rate1024(c.BandwidthGBps, c.ClockGHz)
	return r
}

// TransferCycles returns the exact channel occupancy of moving bytes:
// ceil(bytes·1024 / rate), never zero.
func (c Config) TransferCycles(bytes uint64) uint64 {
	return transferCycles(bytes, c.RatePer1024())
}

// transferCycles is the shared exact ceil division on the fixed-point rate.
//
//proram:hotpath timing arithmetic for every DRAM enqueue
func transferCycles(bytes, rate1024 uint64) uint64 {
	t := (bytes*1024 + rate1024 - 1) / rate1024
	if t == 0 {
		t = 1
	}
	return t
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.LatencyCycles == 0 {
		return fmt.Errorf("dram: LatencyCycles must be positive")
	}
	if _, err := Rate1024(c.BandwidthGBps, c.ClockGHz); err != nil {
		return fmt.Errorf("dram: %w", err)
	}
	if c.Banks <= 0 {
		return fmt.Errorf("dram: Banks must be positive, got %d", c.Banks)
	}
	return nil
}

// PathTiming breaks one ORAM path access into its phase completion times.
// The flat device collapses them into a single serialized window; a banked
// device overlaps them across channels.
type PathTiming struct {
	// Start is the cycle the first bucket command was issued.
	Start uint64
	// ReadDone is when the last path bucket came off the channels.
	ReadDone uint64
	// DataReady is ReadDone plus the crypto pipeline drain: the requested
	// block is usable and a dependent access may issue.
	DataReady uint64
	// Done is when the write-back phase fully drained off the device.
	Done uint64
}

// Device is a path-granular memory timing backend: the ORAM controller
// hands it whole path accesses (identified by tree leaf) and consumes the
// phase schedule it returns. Flat and internal/dram/banked implement it.
type Device interface {
	// Path schedules the full read+write-back of the path to leaf, with the
	// first command issuing no earlier than now.
	Path(now uint64, leaf uint64) PathTiming
}

// Flat is the analytic device: one serialized channel that every path
// access owns for Latency cycles, whatever the leaf, so nothing overlaps
// and every phase completes at now + Latency.
type Flat struct {
	Latency uint64
}

// Path implements Device.
//
//proram:hotpath one call per ORAM path access on the flat model
func (f Flat) Path(now uint64, _ uint64) PathTiming {
	done := now + f.Latency
	return PathTiming{Start: now, ReadDone: done, DataReady: done, Done: done}
}

// Stats aggregates what the device did over a run.
type Stats struct {
	Accesses      uint64 // individual line accesses
	BulkTransfers uint64 // serialized bulk transfers (ORAM paths)
	BytesMoved    uint64
	BusyCycles    uint64 // channel occupancy
}

// Model is a DRAM timing model. The zero value is not usable; construct
// with New.
type Model struct {
	cfg       Config
	rate1024  uint64   // bytes per 1024 cycles, fixed-point channel rate
	bankUntil []uint64 // per-bank next-free time
	busUntil  uint64   // channel next-free time
	stats     Stats
}

// New builds a Model from cfg. It panics on an invalid configuration
// (configuration errors are programming errors in this simulator; the
// public API validates before reaching here).
func New(cfg Config) *Model {
	if err := cfg.Validate(); err != nil {
		//proram:invariant configuration errors are programming errors; public entry points run Config.Validate before construction
		panic(err)
	}
	return &Model{
		cfg:       cfg,
		rate1024:  cfg.RatePer1024(),
		bankUntil: make([]uint64, cfg.Banks),
	}
}

// Config returns the configuration the model was built with.
func (m *Model) Config() Config { return m.cfg }

// Stats returns a copy of the accumulated statistics.
func (m *Model) Stats() Stats { return m.stats }

// transferCycles is the channel occupancy of moving n bytes.
//
//proram:hotpath timing arithmetic for every DRAM enqueue
func (m *Model) transferCycles(bytes uint64) uint64 {
	return transferCycles(bytes, m.rate1024)
}

// Access models one cache-line access issued at time now to the given
// address. Banks may overlap independent accesses, but the shared channel
// serializes data transfer. It returns the cycle at which the data is
// available.
//
//proram:hotpath one enqueue per baseline cache-line access
func (m *Model) Access(now, addr, bytes uint64) uint64 {
	bankUntil := m.bankUntil
	bank := int((addr / 4096) % uint64(len(bankUntil))) // page-interleaved
	transfer := m.transferCycles(bytes)

	start := max(now, bankUntil[bank])
	// The channel must be free for the transfer portion at the end of the
	// access; approximate by serializing transfers on the bus.
	busStart := max(start+m.cfg.LatencyCycles-transfer, m.busUntil)
	done := busStart + transfer

	bankUntil[bank] = done
	m.busUntil = busStart + transfer
	m.stats.Accesses++
	m.stats.BytesMoved += bytes
	m.stats.BusyCycles += transfer
	return done
}

// BulkTransfer models a fully serialized transfer of bytes (an ORAM path
// read+write saturates the channel; nothing overlaps it). It returns the
// completion time. extraLatency is added once up front (e.g. the first
// DRAM access latency and crypto pipeline fill).
//
//proram:hotpath one enqueue per ORAM path transfer
func (m *Model) BulkTransfer(now, bytes, extraLatency uint64) uint64 {
	transfer := m.transferCycles(bytes)
	start := max(now, m.busUntil)
	// A bulk transfer owns every bank and the channel until done.
	done := start + extraLatency + transfer
	bankUntil := m.bankUntil
	for i := range bankUntil {
		bankUntil[i] = done
	}
	m.busUntil = done
	m.stats.BulkTransfers++
	m.stats.BytesMoved += bytes
	m.stats.BusyCycles += done - start
	return done
}

// NextFree returns the earliest cycle at which the channel is idle.
func (m *Model) NextFree() uint64 { return m.busUntil }

// Sub returns the delta of s over an earlier snapshot (all fields are
// monotone counters).
func (s Stats) Sub(base Stats) Stats {
	return Stats{
		Accesses:      s.Accesses - base.Accesses,
		BulkTransfers: s.BulkTransfers - base.BulkTransfers,
		BytesMoved:    s.BytesMoved - base.BytesMoved,
		BusyCycles:    s.BusyCycles - base.BusyCycles,
	}
}

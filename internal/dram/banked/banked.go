package banked

import (
	"encoding/binary"
	"fmt"

	"proram/internal/obs"
)

// rowClosed marks a bank with no open row.
const rowClosed = ^uint64(0)

// Outcome classifies one access against its bank's row buffer.
type Outcome uint8

const (
	// RowHit: the row was already open — column access only.
	RowHit Outcome = iota
	// RowMiss: the bank was idle — activate, then column access.
	RowMiss
	// RowConflict: another row was open — precharge, activate, column access.
	RowConflict
)

// Stats aggregates what the device did. All fields are monotone counters.
type Stats struct {
	Accesses     uint64 // bucket-granular accesses scheduled
	Reads        uint64
	Writes       uint64
	BytesMoved   uint64
	RowHits      uint64
	RowMisses    uint64
	RowConflicts uint64
	BusyCycles   uint64 // summed channel transfer occupancy
}

// Sub returns the delta of s over an earlier snapshot.
func (s Stats) Sub(base Stats) Stats {
	return Stats{
		Accesses:     s.Accesses - base.Accesses,
		Reads:        s.Reads - base.Reads,
		Writes:       s.Writes - base.Writes,
		BytesMoved:   s.BytesMoved - base.BytesMoved,
		RowHits:      s.RowHits - base.RowHits,
		RowMisses:    s.RowMisses - base.RowMisses,
		RowConflicts: s.RowConflicts - base.RowConflicts,
		BusyCycles:   s.BusyCycles - base.BusyCycles,
	}
}

// RowHitRate returns hits/(hits+misses+conflicts), 0 when idle.
func (s Stats) RowHitRate() float64 {
	t := s.RowHits + s.RowMisses + s.RowConflicts
	if t == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(t)
}

// AccessRec is one scheduled access in the optional timing log.
type AccessRec struct {
	Addr    uint64
	Start   uint64 // issue time handed to the scheduler
	Done    uint64 // data off the channel
	Write   bool
	Outcome Outcome
}

// Model is the banked device: per-bank row-buffer and next-free state plus
// per-channel bus serialization. Not safe for concurrent use — the unified
// controller owns one, and the sharded frontend arbitrates all partitions
// onto one at the round barrier.
type Model struct {
	cfg          Config
	rate1024     uint64
	banksPerChan int
	busUntil     []uint64 // per channel
	bankUntil    []uint64 // per global bank (channel-major)
	openRow      []uint64 // per global bank; rowClosed = none
	chanBusy     []uint64 // per channel transfer occupancy
	bankAccesses []uint64 // per global bank
	stats        Stats

	log []AccessRec // nil unless EnableLog
}

// New builds a Model. It panics on an invalid configuration (configuration
// errors are programming errors; public entry points validate first).
func New(cfg Config) *Model {
	if err := cfg.Validate(); err != nil {
		//proram:invariant configuration errors are programming errors; public entry points run Config.Validate before construction
		panic(err)
	}
	cfg = cfg.normalized()
	banksPerChan := cfg.Ranks * cfg.Banks
	nBanks := cfg.Channels * banksPerChan
	m := &Model{
		cfg:          cfg,
		rate1024:     cfg.RatePer1024(),
		banksPerChan: banksPerChan,
		busUntil:     make([]uint64, cfg.Channels),
		bankUntil:    make([]uint64, nBanks),
		openRow:      make([]uint64, nBanks),
		chanBusy:     make([]uint64, cfg.Channels),
		bankAccesses: make([]uint64, nBanks),
	}
	for i := range m.openRow {
		m.openRow[i] = rowClosed
	}
	return m
}

// Config returns the (normalized) configuration the model was built with.
func (m *Model) Config() Config { return m.cfg }

// Stats returns a copy of the accumulated statistics.
func (m *Model) Stats() Stats { return m.stats }

// ChannelBusy returns a copy of the per-channel transfer occupancy.
func (m *Model) ChannelBusy() []uint64 {
	return append([]uint64(nil), m.chanBusy...)
}

// BankAccesses returns a copy of the per-bank access counts (channel-major
// global bank index).
func (m *Model) BankAccesses() []uint64 {
	return append([]uint64(nil), m.bankAccesses...)
}

// EnableLog turns on the per-access timing log (testing/debugging only —
// it allocates per access).
func (m *Model) EnableLog() { m.log = make([]AccessRec, 0, 1024) }

// Log returns the recorded timing log.
func (m *Model) Log() []AccessRec { return m.log }

// LogBytes returns a deterministic fixed-width binary encoding of the
// timing log, the byte string the determinism test compares.
func (m *Model) LogBytes() []byte {
	buf := make([]byte, 0, len(m.log)*26)
	for _, r := range m.log {
		buf = binary.LittleEndian.AppendUint64(buf, r.Addr)
		buf = binary.LittleEndian.AppendUint64(buf, r.Start)
		buf = binary.LittleEndian.AppendUint64(buf, r.Done)
		w := byte(0)
		if r.Write {
			w = 1
		}
		buf = append(buf, w, byte(r.Outcome))
	}
	return buf
}

// decompose splits a physical address into channel, global bank and
// bank-local row. Stripes of StripeBytes alternate channels; within a
// channel, consecutive rows interleave across that channel's banks.
//
//proram:hotpath address decomposition for every bucket enqueue
func (m *Model) decompose(addr uint64) (ch int, gb int, row uint64) {
	stripeBytes := uint64(m.cfg.StripeBytes)
	stripe := addr / stripeBytes
	channels := uint64(m.cfg.Channels)
	ch = int(stripe % channels)
	inChan := (stripe/channels)*stripeBytes + addr%stripeBytes
	crow := inChan / uint64(m.cfg.RowBytes)
	bpc := uint64(m.banksPerChan)
	gb = ch*m.banksPerChan + int(crow%bpc)
	row = crow / bpc
	return ch, gb, row
}

// Access schedules one bucket-granular access issued at time now and
// returns the cycle its data is off the channel. The bank's row-buffer
// state decides the activation cost, and the channel bus serializes
// transfers. Row hits pipeline: successive column accesses to an open row
// stream at bus rate, paying the CAS latency in parallel with the burst in
// flight, so only a row change (miss or conflict) waits for the bank to
// drain before precharge/activate.
//
//proram:hotpath one enqueue per bucket of every banked path access
func (m *Model) Access(now, addr, bytes uint64, write bool) uint64 {
	ch, gb, row := m.decompose(addr)
	// Hoist the geometry-sized slices; decompose maps every address into
	// [0, banks) and [0, channels) by construction. bankUntil is indexed
	// on three paths below, so one pin here saves the compiler two bounds
	// checks; every other slice's first indexing already proves its later
	// ones, and a pin would only move that check.
	openRow, bankUntil, busUntil := m.openRow, m.bankUntil, m.busUntil
	chanBusy, bankAccesses := m.chanBusy, m.bankAccesses
	_ = bankUntil[gb]
	var start uint64
	var rowLat uint64
	var outcome Outcome
	switch openRow[gb] {
	case row:
		// Open row: CAS commands pipeline past the in-flight burst.
		start = now
		rowLat = m.cfg.TCAS
		outcome = RowHit
		m.stats.RowHits++
	case rowClosed:
		start = max(now, bankUntil[gb])
		rowLat = m.cfg.TRCD + m.cfg.TCAS
		outcome = RowMiss
		m.stats.RowMisses++
	default:
		// Row change: the bank must drain its burst before precharge.
		start = max(now, bankUntil[gb])
		rowLat = m.cfg.TRP + m.cfg.TRCD + m.cfg.TCAS
		outcome = RowConflict
		m.stats.RowConflicts++
	}
	transfer := (bytes*1024 + m.rate1024 - 1) / m.rate1024
	if transfer == 0 {
		transfer = 1
	}
	dataStart := max(start+rowLat, busUntil[ch])
	done := dataStart + transfer

	bankUntil[gb] = done
	busUntil[ch] = done
	openRow[gb] = row
	chanBusy[ch] += transfer
	bankAccesses[gb]++
	m.stats.Accesses++
	m.stats.BytesMoved += bytes
	m.stats.BusyCycles += transfer
	if write {
		m.stats.Writes++
	} else {
		m.stats.Reads++
	}
	if m.log != nil {
		m.log = append(m.log, AccessRec{Addr: addr, Start: now, Done: done, Write: write, Outcome: outcome}) //proram:allow allocdiscipline timing log is opt-in debugging, off in measured runs
	}
	return done
}

// NextFree returns the earliest cycle at which every channel is idle.
func (m *Model) NextFree() uint64 {
	var free uint64
	for _, b := range m.busUntil {
		free = max(free, b)
	}
	return free
}

// Instrument registers the device's observability metrics on rec: views
// of the aggregate, per-channel busy-cycle and per-bank access statistics,
// and sampled row-hit-rate / channel-utilization series. A nil rec
// registers nothing.
func (m *Model) Instrument(rec *obs.Recorder) {
	if !rec.Enabled() {
		return
	}
	rec.Counter("dram.banked.accesses", func() uint64 { return m.stats.Accesses })
	rec.Counter("dram.banked.bytes_moved", func() uint64 { return m.stats.BytesMoved })
	rec.Counter("dram.banked.row_hits", func() uint64 { return m.stats.RowHits })
	rec.Counter("dram.banked.row_misses", func() uint64 { return m.stats.RowMisses })
	rec.Counter("dram.banked.row_conflicts", func() uint64 { return m.stats.RowConflicts })
	for i := range m.chanBusy {
		rec.Counter(fmt.Sprintf("dram.banked.chan%d.busy_cycles", i), func() uint64 { return m.chanBusy[i] })
	}
	for i := range m.bankAccesses {
		rec.Counter(fmt.Sprintf("dram.banked.bank%02d.accesses", i), func() uint64 { return m.bankAccesses[i] })
	}
	hitRate := rec.Series("dram.banked.row_hit_rate")
	util := rec.Series("dram.banked.channel_utilization")
	var prev Stats
	var prevCycle uint64
	rec.OnSample(func(cycle uint64) {
		cur := m.stats
		d := cur.Sub(prev)
		hitRate.Record(cycle, d.RowHitRate())
		if cycle > prevCycle {
			window := float64(cycle-prevCycle) * float64(m.cfg.Channels)
			util.Record(cycle, float64(d.BusyCycles)/window)
		} else {
			util.Record(cycle, 0)
		}
		prev, prevCycle = cur, cycle
	})
}

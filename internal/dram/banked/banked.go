package banked

import (
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

// AccessRec is one scheduled access in the timing log tests turn on.
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
	busUntil     [channels]uint64
	bankUntil    [nBanks]uint64 // per global bank (channel-major)
	openRow      [nBanks]uint64 // rowClosed = none
	chanBusy     [channels]uint64
	bankAccesses [nBanks]uint64
	stats        Stats

	log []AccessRec // the per-access timing log, nil (off) unless a test sets it
}

// New builds a Model with every bank closed.
func New() *Model {
	m := &Model{}
	for i := range m.openRow {
		m.openRow[i] = rowClosed
	}
	return m
}

// Stats returns a copy of the accumulated statistics.
func (m *Model) Stats() Stats { return m.stats }

// decompose splits a physical address into channel, global bank and
// bank-local row. Rows, which are also the channel stripes, alternate
// channels; within a channel, consecutive rows interleave across that
// channel's banks.
func decompose(addr uint64) (ch int, gb int, row uint64) {
	stripe := addr >> rowShift
	ch = int(stripe & (channels - 1))
	crow := stripe >> chanShift // the row's index within its channel
	gb = ch*banksPerChan + int(crow&(banksPerChan-1))
	return ch, gb, crow >> bankShift
}

// loc is an address together with its decomposition, so that a caller
// issuing the same address twice decomposes it once.
type loc struct {
	addr, row uint64
	ch, gb    int
}

func locate(addr uint64) loc {
	ch, gb, row := decompose(addr)
	return loc{addr: addr, row: row, ch: ch, gb: gb}
}

// transferCycles returns the channel cycles a transfer of the given size
// occupies: the exact ceiling at the channel rate, and never zero.
func transferCycles(bytes uint64) uint64 {
	return max((bytes*1024+rate1024-1)/rate1024, 1)
}

// Access schedules one bucket-granular access issued at time now and
// returns the cycle its data is off the channel. The bank's row-buffer
// state decides the activation cost, and the channel bus serializes
// transfers. Row hits pipeline: successive column accesses to an open row
// stream at bus rate, paying the CAS latency in parallel with the burst in
// flight, so only a row change (miss or conflict) waits for the bank to
// drain before precharge/activate.
func (m *Model) Access(now, addr, bytes uint64, write bool) uint64 {
	return m.access(now, locate(addr), bytes, transferCycles(bytes), write)
}

// access is Access on a located address whose transfer cycles the caller
// has computed.
func (m *Model) access(now uint64, at loc, bytes, transfer uint64, write bool) uint64 {
	ch, gb, row := at.ch, at.gb, at.row
	var start uint64
	var rowLat uint64
	var outcome Outcome
	switch m.openRow[gb] {
	case row:
		// Open row: CAS commands pipeline past the in-flight burst.
		start = now
		rowLat = tCAS
		outcome = RowHit
		m.stats.RowHits++
	case rowClosed:
		start = max(now, m.bankUntil[gb])
		rowLat = tRCD + tCAS
		outcome = RowMiss
		m.stats.RowMisses++
	default:
		// Row change: the bank must drain its burst before precharge.
		start = max(now, m.bankUntil[gb])
		rowLat = tRP + tRCD + tCAS
		outcome = RowConflict
		m.stats.RowConflicts++
	}
	dataStart := max(start+rowLat, m.busUntil[ch])
	done := dataStart + transfer

	m.bankUntil[gb] = done
	m.busUntil[ch] = done
	m.openRow[gb] = row
	m.chanBusy[ch] += transfer
	m.bankAccesses[gb]++
	m.stats.Accesses++
	m.stats.BytesMoved += bytes
	m.stats.BusyCycles += transfer
	if write {
		m.stats.Writes++
	} else {
		m.stats.Reads++
	}
	if m.log != nil {
		m.log = append(m.log, AccessRec{Addr: at.addr, Start: now, Done: done, Write: write, Outcome: outcome})
	}
	return done
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
			window := float64(cycle-prevCycle) * channels
			util.Record(cycle, float64(d.BusyCycles)/window)
		} else {
			util.Record(cycle, 0)
		}
		prev, prevCycle = cur, cycle
	})
}

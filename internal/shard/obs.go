package shard

import (
	"fmt"

	"proram/internal/obs"
)

// metrics is the frontend's observability wiring. Every emission happens
// on the round driver (dispatcher or replay loop) at a round barrier —
// obs.Recorder is not concurrent-safe, and this is the one place worker
// state is quiescent. The scheduler's counters are not here: they are
// views of Stats, read at export.
type metrics struct {
	rec        *obs.Recorder
	fill       *obs.Histogram // per-(round, partition) fill, percent
	queueDepth *obs.Gauge     // high-water pending requests at a barrier
	stash      []*obs.Gauge   // per-partition stash occupancy high-water

	// Latency decomposition of demand rounds, in simulated cycles (see
	// onRound): per served request its end-to-end total, over all
	// partitions and per partition, and its queueing delay; per (round,
	// partition) the service time and the DRAM residency.
	latE2E     *obs.Histogram
	latPart    []*obs.Histogram
	latQueue   *obs.Histogram
	latService *obs.Histogram
	latDRAM    *obs.Histogram
	spanNames  []string // per-partition trace lane names, preallocated
}

// newMetrics registers f's scheduler metrics on rec; nil recorder, nil
// metrics (every method is then a no-op). The counters read the snapshot
// through f.Stats, under the frontend's mutex.
func newMetrics(rec *obs.Recorder, f *Frontend) *metrics {
	if !rec.Enabled() {
		return nil
	}
	parts := len(f.parts)
	view := func(name string, read func(Stats) uint64) {
		rec.Counter(name, func() uint64 { return read(f.Stats()) })
	}
	view("shard.rounds", func(s Stats) uint64 { return s.Rounds })
	view("shard.flush_rounds", func(s Stats) uint64 { return s.FlushRounds })
	view("shard.demand_accesses", func(s Stats) uint64 { return s.RealAccesses + s.FlushAccesses })
	view("shard.pad_writebacks", func(s Stats) uint64 { return s.PadWritebacks })
	view("shard.dummy_accesses", Stats.PadAccesses)
	view("shard.cache_hits", func(s Stats) uint64 { return s.CacheHits })
	// Every request answered, failed ones included (RequestErrors also
	// counts the blocks a flush could not write back).
	view("shard.requests_served", func(s Stats) uint64 { return s.Reads + s.Writes + s.RequestErrors })
	view("shard.carryovers", func(s Stats) uint64 { return s.Carryovers })
	m := &metrics{
		rec:        rec,
		fill:       rec.Histogram("shard.round_fill_pct"),
		queueDepth: rec.Gauge("shard.queue_depth"),
		stash:      make([]*obs.Gauge, parts),
		latE2E:     rec.Histogram("shard.latency_e2e"),
		latPart:    make([]*obs.Histogram, parts),
		latQueue:   rec.Histogram("shard.latency_queue"),
		latService: rec.Histogram("shard.latency_service"),
		latDRAM:    rec.Histogram("shard.latency_dram"),
		spanNames:  make([]string, parts),
	}
	for i := range m.stash {
		m.stash[i] = rec.Gauge(fmt.Sprintf("shard.p%d.stash_occupancy", i))
		m.latPart[i] = rec.Histogram(fmt.Sprintf("shard.p%d.latency_e2e", i))
		m.spanNames[i] = fmt.Sprintf("p%d.service", i)
	}
	return m
}

// onRound records one completed round (of any kind) from the barrier,
// after arbitration, so every cycle is the contended one the wire shows.
// A demand round's latency decomposes per partition against the round's
// clock floor: service runs from the floor to the partition's data-ready
// clock, DRAM residency from its first physical issue to that clock, and
// a served request queued from the floor of the first round that took it
// (its since) to this one's.
func (m *metrics) onRound(f *Frontend, kind roundKind, floor uint64, byPart []roundResult, pending int) {
	if m == nil {
		return
	}
	if kind == roundDemand {
		for i := range byPart {
			r := &byPart[i]
			m.fill.Observe(uint64(100 * r.real / f.cfg.RoundSlots))
			ready := f.parts[i].store.Now
			var service uint64
			if ready > floor {
				service = ready - floor
				// One "service" lane per partition: Perfetto renders each
				// partition's round execution as a bar from the round's
				// clock floor to the partition's data-ready cycle.
				m.rec.Span("latency", m.spanNames[i], floor, service, "part", uint64(i))
				m.latService.Observe(service)
			}
			if ready > r.issue {
				m.latDRAM.Observe(ready - r.issue)
			}
			for _, since := range r.servedSince {
				var queue uint64
				if floor > since {
					queue = floor - since
				}
				m.latQueue.Observe(queue)
				m.latE2E.Observe(queue + service)
				m.latPart[i].Observe(queue + service)
			}
		}
	}
	m.queueDepth.Max(float64(pending))
	for i, p := range f.parts {
		m.stash[i].Max(float64(p.store.Ctrl.StashSize()))
	}
	m.rec.MaybeSample(f.clockFloor())
}

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

	// End-to-end latency decomposition, in simulated cycles: per-request
	// totals per partition, plus the global queue/service/DRAM components.
	latE2E     []*obs.Histogram
	latQueue   *obs.Histogram
	latService *obs.Histogram
	latDRAM    *obs.Histogram
	spanNames  []string // per-partition trace lane names, preallocated
}

// latencyBounds bucket simulated-cycle latencies from a single path
// access (~thousands) up through heavily queued rounds.
var latencyBounds = []float64{1_000, 10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000}

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
		fill:       rec.Histogram("shard.round_fill_pct", []float64{0, 10, 25, 50, 75, 90, 100}),
		queueDepth: rec.Gauge("shard.queue_depth"),
		stash:      make([]*obs.Gauge, parts),
		latE2E:     make([]*obs.Histogram, parts),
		latQueue:   rec.Histogram("shard.latency_queue", latencyBounds),
		latService: rec.Histogram("shard.latency_service", latencyBounds),
		latDRAM:    rec.Histogram("shard.latency_dram", latencyBounds),
		spanNames:  make([]string, parts),
	}
	for i := range m.stash {
		m.stash[i] = rec.Gauge(fmt.Sprintf("shard.p%d.stash_occupancy", i))
		m.latE2E[i] = rec.Histogram(fmt.Sprintf("shard.p%d.latency_e2e", i), latencyBounds)
		m.spanNames[i] = fmt.Sprintf("p%d.service", i)
	}
	return m
}

// onRound records one completed round (of any kind) from the barrier. For
// demand rounds sp carries the per-partition latency decomposition (nil
// for flush and pad rounds).
func (m *metrics) onRound(f *Frontend, kind roundKind, byPart []roundResult, sp []spans, pending int) {
	if m == nil {
		return
	}
	if kind == roundDemand {
		for i := range byPart {
			m.fill.Observe(100 * float64(byPart[i].real) / float64(f.cfg.RoundSlots))
		}
	}
	if sp != nil {
		for i := range sp {
			s := &sp[i]
			if s.service > 0 {
				// One "service" lane per partition: Perfetto renders each
				// partition's round execution as a bar from the round's clock
				// floor to the partition's data-ready cycle.
				m.rec.Span("latency", m.spanNames[i], s.ready-s.service, s.service, "part", uint64(i))
				m.latService.Observe(float64(s.service))
			}
			if s.dram > 0 {
				m.latDRAM.Observe(float64(s.dram))
			}
			for j := range s.total {
				m.latQueue.Observe(float64(s.queue[j]))
				m.latE2E[i].Observe(float64(s.total[j]))
			}
		}
	}
	m.queueDepth.Max(float64(pending))
	for i, p := range f.parts {
		m.stash[i].Max(float64(p.store.Ctrl.StashSize()))
	}
	m.rec.MaybeSample(f.clockFloor())
}

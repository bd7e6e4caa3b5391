package oram

import (
	"proram/internal/dram/banked"
	"proram/internal/obs"
)

// SetRecorder installs the observability recorder and registers the
// controller's metrics, time series and sampler callbacks. Call it right
// after New, before driving any accesses. A nil recorder (the default)
// leaves every emission site as a single pointer check on a nil handle,
// so the un-instrumented controller pays nothing.
//
// Everything registered here is public protocol state — leaf labels,
// occupancies, counters of indistinguishable path accesses — never block
// payload bytes. The proram-vet oblivious pass enforces that mechanically
// at every emission site.
func (c *Controller) SetRecorder(rec *obs.Recorder) {
	c.obs = rec
	if rec == nil {
		return
	}
	// Counters are views of the statistics the controller and its
	// components keep anyway, read at export; registration order is export
	// order, and the per-kind counters follow AccessKind order.
	st := &c.stats
	rec.Counter("oram.path_accesses", func() uint64 { return st.PathAccesses })
	rec.Counter("oram.paths."+KindData.String(), func() uint64 { return st.DataPaths })
	rec.Counter("oram.paths."+KindPosMap.String(), func() uint64 { return st.PosMapPaths })
	rec.Counter("oram.paths."+KindWriteback.String(), func() uint64 { return st.WritebackPaths })
	rec.Counter("oram.paths."+KindBackgroundEvict.String(), func() uint64 { return st.BackgroundEvictions })
	rec.Counter("oram.paths."+KindPeriodicDummy.String(), func() uint64 { return st.DummyAccesses })
	for k := range NumKinds {
		rec.Counter("oram.cycles."+k.String(), func() uint64 { return st.KindCycles[k] })
	}
	// Super block sizes are powers of two; bounds up to 64 cover every
	// configuration the policy accepts.
	c.obsSBSize = rec.Histogram("oram.sb_size", obs.PowerOfTwoBounds(7))

	// Components. The initializer's untimed drain of an over-packed tree
	// (prefill) is not part of the run, here as in the path counters.
	prefilled := c.st.Writebacks()
	rec.Counter("stash.writebacks", func() uint64 { return c.st.Writebacks() - prefilled })
	rec.GaugeView("stash.high_water", func() float64 { return float64(c.st.HighWater()) })
	rec.Counter("plb.hits", c.plb.Hits)
	rec.Counter("plb.misses", c.plb.Misses)
	if d, ok := c.dev.(*banked.Device); ok {
		d.Model().Instrument(rec)
	}

	// Time series, sampled on the simulated clock. Rates are computed over
	// the window since the previous tick, so the series show trajectories
	// (warmup, phase changes) rather than ever-flattening cumulative means.
	occ := rec.Series("stash_occupancy")
	plbRate := rec.Series("plb_hit_rate")
	pfMiss := rec.Series("prefetch_miss_rate")
	util := rec.Series("channel_utilization")
	var prev struct {
		plbHits, plbMisses uint64
		pfHits, pfUnused   uint64
		busy, cycle        uint64
	}
	rec.OnSample(func(cycle uint64) {
		occ.Record(cycle, float64(c.st.Size()))

		hits, misses := c.plb.Hits(), c.plb.Misses()
		plbRate.Record(cycle, windowRate(hits-prev.plbHits, misses-prev.plbMisses))
		prev.plbHits, prev.plbMisses = hits, misses

		unused := c.stats.PrefetchUnused - prev.pfUnused
		used := c.stats.PrefetchHits - prev.pfHits
		pfMiss.Record(cycle, windowRate(unused, used))
		prev.pfHits, prev.pfUnused = c.stats.PrefetchHits, c.stats.PrefetchUnused

		if cycle > prev.cycle {
			util.Record(cycle, float64(c.stats.BusyCycles-prev.busy)/float64(cycle-prev.cycle))
		} else {
			util.Record(cycle, 0)
		}
		prev.busy, prev.cycle = c.stats.BusyCycles, cycle
	})
}

// windowRate returns a/(a+b), the fraction a represents of the window's
// total, or 0 for an empty window.
func windowRate(a, b uint64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

package obs

// Registry holds named metrics in registration order. Lookups are linear
// scans: registration happens a handful of times per simulated system,
// never on the per-access hot path, and avoiding maps keeps every export
// trivially deterministic.
type Registry struct {
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
}

// Counter is a named uint64 metric whose value lives in the component that
// counts it: the registry keeps only how to read it, and reads at export.
// A counter can therefore never disagree with the statistic it reports.
type Counter struct {
	name string
	read func() uint64 // nil once frozen
	v    uint64        // the last reading of a frozen counter
}

// Value reads the counter (0 on nil).
func (c *Counter) Value() uint64 {
	switch {
	case c == nil:
		return 0
	case c.read != nil:
		return c.read()
	}
	return c.v
}

// Gauge is a point-in-time float64 metric: either set by events (Set, Max)
// or, when registered with a reader, a view read at export like a Counter.
// All methods are no-ops on a nil handle.
type Gauge struct {
	name string
	read func() float64 // view gauges only; nil once frozen
	v    float64
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Max raises the gauge to v if v is larger (high-water tracking).
func (g *Gauge) Max(v float64) {
	if g != nil && v > g.v {
		g.v = v
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	switch {
	case g == nil:
		return 0
	case g.read != nil:
		return g.read()
	}
	return g.v
}

// Histogram counts observations into buckets with ascending upper-bound
// edges plus an implicit +Inf bucket. All methods are no-ops on a nil
// handle.
type Histogram struct {
	name   string
	bounds []float64 // ascending upper bounds; counts has len(bounds)+1
	counts []uint64
	count  uint64
	sum    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += v
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Mean returns the running mean of observations (0 before the first).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Counter returns the named counter, registering it on first use as a view
// of read (the first registration of a name wins).
func (r *Registry) Counter(name string, read func() uint64) *Counter {
	for _, c := range r.counters {
		if c.name == name {
			return c
		}
	}
	c := &Counter{name: name, read: read}
	r.counters = append(r.counters, c)
	return c
}

// Gauge returns the named gauge, registering it on first use. A non-nil
// read makes it a view; nil leaves it to Set and Max.
func (r *Registry) Gauge(name string, read func() float64) *Gauge {
	for _, g := range r.gauges {
		if g.name == name {
			return g
		}
	}
	g := &Gauge{name: name, read: read}
	r.gauges = append(r.gauges, g)
	return g
}

// freeze reads every view one last time and drops its reader: the values
// stay in the export, and the system they were read from is no longer
// reachable from the registry.
func (r *Registry) freeze() {
	for _, c := range r.counters {
		c.v, c.read = c.Value(), nil
	}
	for _, g := range r.gauges {
		g.v, g.read = g.Value(), nil
	}
}

// Histogram returns the named histogram, registering it on first use with
// the given bucket bounds (bounds are ignored on a rediscovered name: the
// first registration wins).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	for _, h := range r.hists {
		if h.name == name {
			return h
		}
	}
	h := &Histogram{
		name:   name,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.hists = append(r.hists, h)
	return h
}

// PowerOfTwoBounds returns histogram bounds 1, 2, 4, ... 2^(n-1) —
// the natural scale for super block sizes and occupancy counts.
func PowerOfTwoBounds(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(uint64(1) << i)
	}
	return out
}

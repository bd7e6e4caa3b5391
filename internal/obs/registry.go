package obs

import "math/bits"

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

// Histogram is a streaming integer histogram with deterministic
// quantiles: fixed power-of-two bins (bin b holds the values of bit length
// b, i.e. [2^(b-1), 2^b) for b ≥ 1 and {0} for b = 0) and integer
// interpolation inside the selected bin. Its memory is fixed whatever the
// stream length, and two histograms fed the same stream report the same
// quantiles on every platform. All methods are no-ops on a nil handle.
type Histogram struct {
	name   string
	counts [histBins]uint64
	n      uint64
	max    uint64
}

// histBins is bits.Len64's range.
const histBins = 65

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.counts[bits.Len64(v)]++
	h.n++
	h.max = max(h.max, v)
}

// Quantile returns the num/den quantile (e.g. 99/100 for p99): the value
// at rank ceil(n·num/den), estimated by spreading a bin's count evenly
// across its range. Integer arithmetic throughout; an empty histogram
// returns 0.
func (h *Histogram) Quantile(num, den uint64) uint64 {
	if h == nil || h.n == 0 || den == 0 {
		return 0
	}
	rank := min(max((h.n*num+den-1)/den, 1), h.n)
	var cum uint64
	for b, cnt := range h.counts {
		if rank > cum+cnt {
			cum += cnt
			continue
		}
		lo, hi := binRange(b)
		hi = min(hi, h.max)
		// The midpoint of the pos-th of cnt equal slices of [lo, hi],
		// monotone in pos. The product is below 2·cnt·2^64, so the
		// 128-bit division cannot overflow.
		pos := rank - cum // 1..cnt
		ph, pl := bits.Mul64(hi-lo, 2*pos-1)
		q, _ := bits.Div64(ph, pl, 2*cnt)
		return lo + q
	}
	return h.max
}

// binRange returns the value range [lo, hi] bin b covers.
func binRange(b int) (lo, hi uint64) {
	if b == 0 {
		return 0, 0
	}
	lo = uint64(1) << (b - 1)
	return lo, lo<<1 - 1 // at b = 64 the shift wraps to 0 and hi to MaxUint64
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

// Histogram returns the named histogram, registering it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	for _, h := range r.hists {
		if h.name == name {
			return h
		}
	}
	h := &Histogram{name: name}
	r.hists = append(r.hists, h)
	return h
}

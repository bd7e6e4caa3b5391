// Package obs is the simulator's observability layer: a metrics registry
// of counters, gauges and histograms with byte-deterministic JSON export,
// a cycle-driven time-series sampler, a structured event tracer emitting
// Chrome trace-event-format JSON, and a fixed-size flight-recorder ring
// buffer of recent events that is dumped when the simulation hits a
// pathological state (stash overflow, invariant failure).
//
// Everything is stdlib-only and deterministic: exports iterate in
// registration order (never Go map order), timestamps are simulated
// cycles (no wall clock), and two runs with the same seed and flags
// produce byte-identical dumps.
//
// A counter is a view, not a second copy: the component that counts keeps
// the number in its own statistics and registers how to read it,
//
//	rec.Counter("plb.hits", plb.Hits)
//
// and WriteMetrics reads it at export, so no counter call sits on an
// access path and none can drift from the statistic it reports. Events no
// statistic holds — histograms, event gauges, series, spans — go through
// handles, and that surface is nil-safe: a nil *Recorder and every nil
// handle it hands out make an emission site one pointer check.
//
// Obliviousness stance: metric names, series values and trace-event
// arguments must be derived from public protocol state only (leaf labels,
// cycle counts, structure occupancies). The proram-vet oblivious pass
// enforces this mechanically: any argument of an obs emission call that
// is tainted by secret block payload bytes is reported as a leak.
package obs

import (
	"fmt"
	"io"
)

// Recorder is the hub the simulator components emit into. The zero value
// is not used; construct with New. A nil Recorder is the disabled state:
// every method on it (and on the nil metric handles it returns) is a
// cheap no-op.
//
// A Recorder is not safe for concurrent use, matching the single-threaded
// simulator it instruments. When several systems share one Recorder (the
// bench harness runs experiments back to back) each system calls
// BeginProcess, which scopes sampler callbacks to the active system and
// separates trace events by pid.
type Recorder struct {
	reg     Registry
	sampler Sampler
	tracer  *Tracer
	ring    *Ring

	flightOut io.Writer
	pid       int
	label     string
}

// Options configures a Recorder.
type Options struct {
	// SampleEvery is the simulated-cycle interval between time-series
	// samples; 0 disables the sampler.
	SampleEvery uint64
	// FlightSize is the flight-recorder capacity in events (default 256).
	FlightSize int
	// TraceOut receives the Chrome trace-event stream; nil disables trace
	// emission (the flight ring still records).
	TraceOut io.Writer
	// FlightOut receives flight-recorder dumps; nil discards them.
	FlightOut io.Writer
}

// New builds an enabled Recorder.
func New(o Options) *Recorder {
	size := o.FlightSize
	if size <= 0 {
		size = 256
	}
	r := &Recorder{
		ring:      newRing(size),
		flightOut: o.FlightOut,
		pid:       1,
	}
	r.sampler.every = o.SampleEvery
	if o.TraceOut != nil {
		r.tracer = NewTracer(o.TraceOut)
	}
	return r
}

// Enabled reports whether emissions are recorded.
func (r *Recorder) Enabled() bool { return r != nil }

// BeginProcess starts a new logical process (one simulated system) in the
// trace: subsequent events carry a fresh pid, a process_name metadata
// record is emitted, and the earlier processes are finished — their
// sampler callbacks stop firing and their view metrics are read one last
// time and keep that value, so the recorder no longer holds on to their
// systems. It returns the pid. The first system keeps pid 1.
func (r *Recorder) BeginProcess(label string) int {
	if r == nil {
		return 0
	}
	if r.label != "" || r.pid > 1 {
		r.pid++
	}
	r.label = label
	r.reg.freeze()
	r.sampler.beginProcess()
	if r.tracer != nil {
		r.tracer.Meta(r.pid, label)
	}
	return r.pid
}

// Pid returns the current process id (0 on a nil Recorder).
func (r *Recorder) Pid() int {
	if r == nil {
		return 0
	}
	return r.pid
}

// metricPrefix namespaces registrations of processes after the first so
// back-to-back systems sharing one Recorder keep distinct metrics.
func (r *Recorder) metricPrefix() string {
	if r.pid <= 1 {
		return ""
	}
	return fmt.Sprintf("p%d.", r.pid)
}

// Counter registers the named counter as a view: read is called at every
// export until the next BeginProcess. Nil Recorder → nil handle.
func (r *Recorder) Counter(name string, read func() uint64) *Counter {
	if r == nil {
		return nil
	}
	return r.reg.Counter(r.metricPrefix()+name, read)
}

// Gauge registers (or finds) the named event gauge, driven by Set and Max.
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.reg.Gauge(r.metricPrefix()+name, nil)
}

// GaugeView registers the named gauge as a view of read, like Counter.
func (r *Recorder) GaugeView(name string, read func() float64) *Gauge {
	if r == nil {
		return nil
	}
	return r.reg.Gauge(r.metricPrefix()+name, read)
}

// Histogram registers (or finds) the named histogram with the given
// ascending upper bucket bounds (an implicit +Inf bucket is added).
func (r *Recorder) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.reg.Histogram(r.metricPrefix()+name, bounds)
}

// Series registers a fresh time series under the current process.
func (r *Recorder) Series(name string) *Series {
	if r == nil {
		return nil
	}
	return r.sampler.newSeries(r.pid, name)
}

// OnSample registers a callback invoked at every sampler tick until the
// next BeginProcess. The callback receives the tick's simulated cycle and
// typically records one point into each of its series.
func (r *Recorder) OnSample(f func(cycle uint64)) {
	if r == nil {
		return
	}
	r.sampler.onSample(f)
}

// MaybeSample advances simulated time to now, firing sampler ticks for
// every interval boundary crossed. Call it from the component that owns
// the clock (the ORAM controller after each path access, the DRAM model
// in the insecure baseline). Cheap when no tick is due.
func (r *Recorder) MaybeSample(now uint64) {
	if r == nil || r.sampler.every == 0 {
		return
	}
	r.sampler.maybeSample(now)
}

// Span records a completed duration event ('X' in the trace format):
// something that occupied [start, start+dur) cycles, with one optional
// uint64 argument (pass "" to omit it).
func (r *Recorder) Span(cat, name string, start, dur uint64, argKey string, argVal uint64) {
	if r == nil {
		return
	}
	r.emit(Event{Ph: 'X', Cat: cat, Name: name, TS: start, Dur: dur, Pid: r.pid, ArgKey: argKey, ArgVal: argVal})
}

// Instant records a point event ('i' in the trace format) at cycle ts.
func (r *Recorder) Instant(cat, name string, ts uint64, argKey string, argVal uint64) {
	if r == nil {
		return
	}
	r.emit(Event{Ph: 'i', Cat: cat, Name: name, TS: ts, Pid: r.pid, ArgKey: argKey, ArgVal: argVal})
}

// CounterEvent records a counter-track sample ('C' in the trace format):
// Perfetto renders these as a stepped value track named name.
func (r *Recorder) CounterEvent(cat, name string, ts uint64, argKey string, argVal uint64) {
	if r == nil {
		return
	}
	r.emit(Event{Ph: 'C', Cat: cat, Name: name, TS: ts, Pid: r.pid, ArgKey: argKey, ArgVal: argVal})
}

// emit routes one event to the flight ring and, when tracing, the writer.
func (r *Recorder) emit(e Event) {
	r.ring.add(e)
	if r.tracer != nil {
		r.tracer.Emit(e)
	}
}

// Flight dumps the flight-recorder ring to the configured FlightOut with
// a one-line header naming the reason and cycle. Call it when the
// simulation reaches a state worth post-morteming (stash pinned over its
// limit, invariant violation). A nil Recorder or absent FlightOut is a
// no-op.
func (r *Recorder) Flight(reason string, cycle uint64) {
	if r == nil || r.flightOut == nil {
		return
	}
	fmt.Fprintf(r.flightOut, "# obs flight dump: %s at cycle %d (%d recent events, oldest first)\n",
		reason, cycle, r.ring.Len())
	r.ring.dump(r.flightOut)
}

// FlightEvents returns a copy of the ring contents, oldest first (tests,
// tooling).
func (r *Recorder) FlightEvents() []Event {
	if r == nil {
		return nil
	}
	return r.ring.Events()
}

// WriteMetrics writes the deterministic metrics dump: every counter,
// gauge and histogram in registration order, then every time series in
// creation order. Same seed and flags → byte-identical output.
func (r *Recorder) WriteMetrics(w io.Writer) error {
	if r == nil {
		return nil
	}
	return writeMetricsJSON(w, &r.reg, &r.sampler)
}

// CloseTrace terminates the trace-event array so the file is well-formed
// JSON, and flushes it. Safe to call when tracing is disabled.
func (r *Recorder) CloseTrace() error {
	if r == nil || r.tracer == nil {
		return nil
	}
	return r.tracer.Close()
}

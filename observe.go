package proram

import (
	"io"

	"proram/internal/obs"
)

// ObsConfig enables the observability layer of a Simulator: a metrics
// registry with byte-deterministic JSON export, cycle-driven time series
// (stash occupancy, PLB hit rate, prefetch miss rate, super-block sizes,
// channel utilization), a Chrome trace-event stream loadable by
// chrome://tracing and Perfetto, and a flight-recorder ring dumped when
// the simulation hits a pathological state.
//
// All timestamps are simulated cycles; two runs with the same seed and
// configuration produce byte-identical trace and metrics output.
type ObsConfig struct {
	// TraceOut receives the Chrome trace-event JSON stream; nil disables
	// tracing (metrics and the flight ring still record).
	TraceOut io.Writer
	// MetricsOut receives the metrics JSON dump when CloseObs is called;
	// nil discards the metrics.
	MetricsOut io.Writer
	// FlightOut receives flight-recorder dumps (stash saturation,
	// invariant failures); nil discards them.
	FlightOut io.Writer
	// SampleEvery is the simulated-cycle interval between time-series
	// samples; 0 disables the sampler.
	SampleEvery uint64
}

// recorder builds the internal recorder for a configured simulator.
func (c *ObsConfig) recorder() *obs.Recorder {
	if c == nil {
		return nil
	}
	return obs.New(obs.Options{
		SampleEvery: c.SampleEvery,
		TraceOut:    c.TraceOut,
		FlightOut:   c.FlightOut,
	})
}

// CloseObs finalizes the simulator's observability outputs: the metrics
// dump is written to MetricsOut and the trace-event array is terminated so
// the trace file is well-formed JSON. Call it once, after the last Run.
// It is a no-op on a simulator built without ObsConfig.
func (s *Simulator) CloseObs() error {
	return finishObs(s.rec, s.metricsOut)
}

// finishObs writes rec's metrics dump to metricsOut (nil discards it) and
// terminates its trace; the error is the first of the two to fail. A nil
// rec has nothing to finish.
func finishObs(rec *obs.Recorder, metricsOut io.Writer) error {
	var err error
	if metricsOut != nil {
		err = rec.WriteMetrics(metricsOut)
	}
	if cerr := rec.CloseTrace(); err == nil {
		err = cerr
	}
	return err
}

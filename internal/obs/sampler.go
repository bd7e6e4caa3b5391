package obs

// Sampler drives time-series collection on the simulated clock: every
// `every` cycles it invokes the callbacks registered by the active
// process, which read their component state and record points into their
// Series. The sampler never reads a wall clock; "time" is whatever cycle
// the instrumented component reports via Recorder.MaybeSample.
type Sampler struct {
	every uint64
	next  uint64

	series    []*Series
	callbacks []func(cycle uint64)
}

// Series is one named time series: parallel cycle/value slices, tagged
// with the pid of the process that produced it. All methods are no-ops on
// a nil handle.
type Series struct {
	pid    int
	name   string
	cycles []uint64
	values []float64
}

// Record appends one point. Points arrive in non-decreasing cycle order
// because the sampler drives them from the simulated clock.
func (s *Series) Record(cycle uint64, v float64) {
	if s == nil {
		return
	}
	s.cycles = append(s.cycles, cycle)
	s.values = append(s.values, v)
}

// Len returns the number of recorded points (0 on nil).
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.cycles)
}

// newSeries always appends: two processes may both record, say,
// "stash_occupancy", and stay distinguishable by pid in the export.
func (sm *Sampler) newSeries(pid int, name string) *Series {
	s := &Series{pid: pid, name: name}
	sm.series = append(sm.series, s)
	return s
}

// onSample registers a tick callback for the active process.
func (sm *Sampler) onSample(f func(cycle uint64)) {
	sm.callbacks = append(sm.callbacks, f)
}

// beginProcess drops the previous process's callbacks (its system is no
// longer running; letting them fire would extend its series with stale
// state) and restarts the tick phase, since each system starts its clock
// at cycle zero.
func (sm *Sampler) beginProcess() {
	clear(sm.callbacks) // the closures hold the finished system
	sm.callbacks = sm.callbacks[:0]
	sm.next = 0
}

// maybeSample fires one tick per interval boundary in (next, now]. Tick
// timestamps are the exact boundaries, so sample spacing is uniform even
// when the driving component advances time in larger jumps; the sampled
// values are the component state at the first opportunity at or after
// each boundary (state changes atomically per path access, so this is the
// finest granularity the simulation has).
func (sm *Sampler) maybeSample(now uint64) {
	for sm.next <= now {
		tick := sm.next
		for _, f := range sm.callbacks {
			f(tick)
		}
		sm.next += sm.every
	}
}

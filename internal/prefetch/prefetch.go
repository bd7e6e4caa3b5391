// Package prefetch implements the traditional stream prefetcher studied in
// the paper's §3.1/§5.2: a small table of detected sequential miss streams
// that issues next-block prefetch requests. On DRAM it hides latency by
// using spare bandwidth; on ORAM it competes with demand requests for the
// saturated controller, which is exactly the effect Figure 5 demonstrates.
package prefetch

import "fmt"

// Config parameterizes the prefetcher.
type Config struct {
	// Streams is the number of concurrent miss streams tracked.
	Streams int
	// Degree is how many consecutive blocks are prefetched when a stream
	// is confirmed.
	Degree int
}

// DefaultConfig returns a typical 8-stream, degree-2 next-line prefetcher.
func DefaultConfig() Config { return Config{Streams: 8, Degree: 2} }

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Streams < 1 || c.Degree < 1 {
		return fmt.Errorf("prefetch: Streams and Degree must be positive: %+v", c)
	}
	return nil
}

// stream is one tracked miss stream.
type stream struct {
	valid     bool
	expected  uint64 // next block index that confirms the stream
	confirmed bool   // saw at least two sequential misses
	lastUse   uint64 // for LRU replacement
}

// Stream is the prefetcher. It operates on block indices.
type Stream struct {
	cfg     Config
	streams []stream
	tick    uint64
	issued  uint64
}

// New builds the prefetcher; it panics on invalid configuration.
func New(cfg Config) *Stream {
	if err := cfg.Validate(); err != nil {
		//proram:invariant configuration errors are programming errors; public entry points run Config.Validate before construction
		panic(err)
	}
	return &Stream{cfg: cfg, streams: make([]stream, cfg.Streams)}
}

// Issued returns the number of prefetch requests generated so far.
func (s *Stream) Issued() uint64 { return s.issued }

// OnMiss observes a demand miss of the given block index and appends the
// block indices to prefetch to dst. A stream must be confirmed by two
// sequential misses before it issues prefetches.
//
//proram:hotpath runs on every simulated LLC miss
func (s *Stream) OnMiss(index uint64, dst []uint64) []uint64 {
	s.tick++
	streams := s.streams
	// Look for a stream expecting this index.
	for i := range streams {
		st := &streams[i]
		if !st.valid || st.expected != index {
			continue
		}
		st.lastUse = s.tick
		st.confirmed = true
		st.expected = index + 1
		for d := 1; d <= s.cfg.Degree; d++ {
			dst = append(dst, index+uint64(d)) //proram:allow allocdiscipline appends into a caller-owned reusable buffer
			s.issued++
		}
		return dst
	}
	// No match: allocate (LRU) a tentative stream expecting index+1. The
	// victim's lastUse rides in a register instead of re-indexing.
	victim, victimUse := 0, ^uint64(0)
	for i := range streams {
		st := &streams[i]
		if !st.valid {
			victim = i
			break
		}
		if st.lastUse < victimUse {
			victim, victimUse = i, st.lastUse
		}
	}
	streams[victim] = stream{valid: true, expected: index + 1, lastUse: s.tick}
	return dst
}

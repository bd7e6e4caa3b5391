package trace

import (
	"fmt"

	"proram/internal/rng"
)

// SyntheticConfig parameterizes the §5.3 microbenchmark: an array accessed
// with a sequential pattern over part of the data and a random pattern
// over the rest.
type SyntheticConfig struct {
	// Ops is the number of memory operations to generate.
	Ops uint64
	// WorkingSetBytes is the array size.
	WorkingSetBytes uint64
	// LocalityFraction is the fraction of the data accessed sequentially
	// (the Figure 6a sweep variable). The first LocalityFraction of the
	// array is scanned; the remainder is accessed at random.
	LocalityFraction float64
	// RunLen is the expected sequential-run length in Stride units before
	// the scan cursor jumps (geometric distribution). Longer runs mean
	// stronger spatial locality.
	RunLen int
	// Gap is the mean compute-cycle gap between memory operations.
	Gap uint32
	// WriteFraction is the probability an operation is a store.
	WriteFraction float64
	// PhaseLen, when nonzero, enables the Figure 6b phase-change pattern:
	// every PhaseLen operations, the sequential and random halves of the
	// array swap roles.
	PhaseLen uint64
	// Seed drives the generator's randomness.
	Seed uint64
}

// Validate reports whether the configuration is usable.
func (c SyntheticConfig) Validate() error {
	if c.Ops == 0 {
		return fmt.Errorf("trace: Ops must be positive")
	}
	if c.WorkingSetBytes < 4*Stride {
		return fmt.Errorf("trace: working set %d too small", c.WorkingSetBytes)
	}
	// Negated conjunctions: NaN must fail them too.
	if !(c.LocalityFraction >= 0 && c.LocalityFraction <= 1) {
		return fmt.Errorf("trace: LocalityFraction %v out of [0,1]", c.LocalityFraction)
	}
	if c.RunLen < 1 {
		return fmt.Errorf("trace: RunLen must be positive")
	}
	if !(c.WriteFraction >= 0 && c.WriteFraction <= 1) {
		return fmt.Errorf("trace: WriteFraction %v out of [0,1]", c.WriteFraction)
	}
	return nil
}

// Synthetic is the §5.3 microbenchmark generator.
type Synthetic struct {
	cfg    SyntheticConfig
	rnd    *rng.Source
	n      uint64
	cursor uint64 // sequential scan position (bytes, within the seq region)
	phase  uint64
}

// NewSynthetic builds the generator. It panics on invalid configuration
// (the public API validates earlier).
func NewSynthetic(cfg SyntheticConfig) *Synthetic {
	if err := cfg.Validate(); err != nil {
		//proram:invariant configuration errors are programming errors; public entry points run Config.Validate before construction
		panic(err)
	}
	return &Synthetic{cfg: cfg, rnd: rng.New(cfg.Seed)}
}

// Len implements Generator.
func (s *Synthetic) Len() uint64 { return s.cfg.Ops }

// regions returns the [start, size) of the sequential and random regions
// for the current phase.
func (s *Synthetic) regions() (seqStart, seqSize, rndStart, rndSize uint64) {
	ws := s.cfg.WorkingSetBytes
	seqSize = uint64(float64(ws) * s.cfg.LocalityFraction)
	seqSize -= seqSize % Stride
	rndSize = ws - seqSize
	if s.cfg.PhaseLen > 0 && s.phase%2 == 1 {
		// Odd phases: the two halves swap roles.
		return rndSize, seqSize, 0, rndSize
	}
	return 0, seqSize, seqSize, rndSize
}

// Next implements Generator.
func (s *Synthetic) Next() (Op, bool) {
	if s.n >= s.cfg.Ops {
		return Op{}, false
	}
	if s.cfg.PhaseLen > 0 && s.n > 0 && s.n%s.cfg.PhaseLen == 0 {
		s.phase++
		s.cursor = 0
	}
	s.n++

	seqStart, seqSize, rndStart, rndSize := s.regions()
	var addr uint64
	useSeq := seqSize > 0 && s.rnd.Float64() < s.cfg.LocalityFraction
	if useSeq {
		// Continue the scan; occasionally jump to a new random position to
		// bound run lengths (geometric with mean RunLen).
		if s.rnd.Float64() < 1.0/float64(s.cfg.RunLen) {
			s.cursor = s.rnd.Uint64n(seqSize/Stride) * Stride
		}
		addr = seqStart + s.cursor
		s.cursor += Stride
		if s.cursor >= seqSize {
			s.cursor = 0
		}
	} else {
		if rndSize < Stride {
			addr = seqStart + s.rnd.Uint64n(seqSize/Stride)*Stride
		} else {
			addr = rndStart + s.rnd.Uint64n(rndSize/Stride)*Stride
		}
	}

	gap := s.cfg.Gap
	if gap > 1 {
		// Jitter the gap by ±50% for a less clockwork stream.
		gap = gap/2 + uint32(s.rnd.Uint64n(uint64(gap)))
	}
	return Op{
		Gap:   gap,
		Addr:  addr,
		Write: s.rnd.Float64() < s.cfg.WriteFraction,
	}, true
}

// Package superblock implements the decision logic of the paper's super
// block schemes: the previously-proposed static scheme (Ren et al.) and
// PrORAM's dynamic scheme with merge/break counters and static or adaptive
// thresholding (paper §3.3 and §4).
//
// The package is pure policy: given counter values and the windowed rates
// the controller samples, it answers "should these neighbors merge?" and
// "should this super block break?". The mechanics (remapping, counter
// storage in position-map blocks, LLC probing) live in internal/oram.
package superblock

import "fmt"

// Scheme selects which super block scheme is active.
type Scheme int

const (
	// None disables super blocks entirely (baseline Path ORAM).
	None Scheme = iota
	// Static merges every aligned group of Size blocks at initialization
	// and never changes the grouping (paper §3.3).
	Static
	// Dynamic is PrORAM: blocks are merged and broken at runtime based on
	// observed spatial locality (paper §4).
	Dynamic
)

func (s Scheme) String() string {
	switch s {
	case None:
		return "none"
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ThresholdMode selects how merge/break thresholds are computed (§4.4).
type ThresholdMode int

const (
	// ThresholdStatic uses the fixed schedule of §4.4.1: merge two size-n
	// neighbors at counter >= 2n; break counters start at 2n and break
	// when they would drop below zero.
	ThresholdStatic ThresholdMode = iota
	// ThresholdAdaptive uses Equation 1 of §4.4.2, recomputed every
	// observation window from eviction rate, access rate and prefetch hit
	// rate.
	ThresholdAdaptive
)

func (m ThresholdMode) String() string {
	if m == ThresholdStatic {
		return "static"
	}
	return "adaptive"
}

// Config parameterizes a Policy.
type Config struct {
	Scheme Scheme
	// MaxSize is the maximum super block size (a power of two >= 1). For
	// the Static scheme it is also the (fixed) merge granularity. The
	// paper's default is 2 (Table 1), swept up to 8 in Figure 7.
	MaxSize int
	// MergeMode/BreakMode choose the thresholding for the Dynamic scheme.
	// Figure 6b's variants map as: sm_nb = {static, disabled},
	// am_nb = {adaptive, disabled}, am_ab = {adaptive, adaptive}.
	MergeMode ThresholdMode
	BreakMode ThresholdMode
	// DisableBreak turns super block breaking off (the *_nb variants).
	DisableBreak bool
	// CMerge and CBreak are the coefficient C of Equation 1 for the merge
	// and break thresholds respectively. The paper settles on 1 and 1
	// after the Figure 10 sweep.
	CMerge float64
	CBreak float64
	// Window is the number of ORAM requests per rate-sampling window
	// (1000 in the paper).
	Window int
}

// DefaultConfig returns PrORAM's default dynamic configuration (Table 1 +
// §5.5.1: max super block size 2, adaptive thresholding, C = 1).
func DefaultConfig() Config {
	return Config{
		Scheme:    Dynamic,
		MaxSize:   2,
		MergeMode: ThresholdAdaptive,
		BreakMode: ThresholdAdaptive,
		CMerge:    1,
		CBreak:    1,
		Window:    1000,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Scheme != None {
		if c.MaxSize < 1 || c.MaxSize&(c.MaxSize-1) != 0 {
			return fmt.Errorf("superblock: MaxSize %d must be a power of two >= 1", c.MaxSize)
		}
	}
	if c.Scheme == Dynamic {
		if c.CMerge <= 0 || c.CBreak <= 0 {
			return fmt.Errorf("superblock: coefficients must be positive (CMerge=%v CBreak=%v)", c.CMerge, c.CBreak)
		}
		if c.Window < 1 {
			return fmt.Errorf("superblock: Window %d must be positive", c.Window)
		}
	}
	return nil
}

// Rates are the windowed statistics feeding Equation 1, sampled by the
// controller every Config.Window requests.
type Rates struct {
	// EvictionRate is background evictions divided by total requests.
	EvictionRate float64
	// AccessRate is the fraction of time the ORAM was busy.
	AccessRate float64
	// PrefetchHitRate is prefetch hits divided by blocks prefetched.
	PrefetchHitRate float64
}

// Policy answers merge/break questions for the configured scheme.
type Policy struct {
	cfg   Config
	rates Rates
}

// New builds a Policy. It panics on invalid configuration; the public API
// validates earlier.
func New(cfg Config) *Policy {
	if err := cfg.Validate(); err != nil {
		//proram:invariant configuration errors are programming errors; public entry points run Config.Validate before construction
		panic(err)
	}
	if cfg.Scheme == None {
		cfg.MaxSize = 1
	}
	return &Policy{cfg: cfg, rates: Rates{PrefetchHitRate: 1}}
}

// Config returns the policy's configuration.
func (p *Policy) Config() Config { return p.cfg }

// Scheme returns the active scheme.
func (p *Policy) Scheme() Scheme { return p.cfg.Scheme }

// MaxSize returns the maximum super block size.
func (p *Policy) MaxSize() int { return p.cfg.MaxSize }

// UpdateRates installs the latest window's rates (Dynamic scheme only).
// A negative PrefetchHitRate means the window resolved no prefetches;
// the previous estimate is retained. A zero rate (every prefetch missed)
// is floored to keep the Equation 1 division finite.
func (p *Policy) UpdateRates(r Rates) {
	if r.PrefetchHitRate < 0 {
		r.PrefetchHitRate = p.rates.PrefetchHitRate
	}
	if r.PrefetchHitRate < 0.05 {
		r.PrefetchHitRate = 0.05
	}
	p.rates = r
}

// Rates returns the rates currently in force.
func (p *Policy) Rates() Rates { return p.rates }

// equation1 computes the base threshold of §4.4.2 for the given super
// block size and coefficient.
func (p *Policy) equation1(c float64, sbsize int) float64 {
	s := float64(sbsize)
	return c * s * s * p.rates.EvictionRate * p.rates.AccessRate / p.rates.PrefetchHitRate
}

// MergeThreshold returns the merge-counter threshold for merging two
// size-n neighbors into a size-2n super block.
func (p *Policy) MergeThreshold(n int) float64 {
	if p.cfg.MergeMode == ThresholdStatic {
		// §4.4.1: threshold 2n for size-n halves (2, 4, 8 for n = 1, 2, 4).
		return float64(2 * n)
	}
	// §4.4.2: Equation 1 with the size being created (2n) — "larger blocks
	// incur more dummy accesses". The floor of 1 means a pure ascending
	// scan, whose pair counter nets exactly +1 per pass (the lower half
	// always loads before its neighbor is cached, so each visit is a
	// decrement followed by an increment), merges as soon as pressure is
	// low; Equation 1 raises the bar as eviction/occupancy pressure and
	// prefetch misses appear. The paper's merge/break hysteresis is
	// realized by initializing the break counter to 2n on merge (§4.4.1)
	// rather than by inflating this threshold, which the scan's +1-per-
	// pass dynamics could never reach.
	t := p.equation1(p.cfg.CMerge, 2*n)
	// Equation 1 is multiplicative in the eviction rate, so on a system
	// whose stash absorbs super blocks without background evictions it
	// degenerates to zero and cannot throttle inaccurate merging. The
	// paper notes its equation is "not provably the optimal" and leaves
	// better thresholding open; we add the missing feedback: when the
	// windowed prefetch hit rate falls below one half (merging is wrong
	// more often than right), the threshold rises steeply, pushing it out
	// of reach of the chance co-residency a random pattern produces.
	if phr := p.rates.PrefetchHitRate; phr < 0.5 {
		t += 8 * float64(n) * (0.5 - phr)
	}
	if t < 1 {
		t = 1
	}
	return t
}

// ShouldMerge reports whether a pair of size-n neighbors with the given
// merge-counter value should merge now.
func (p *Policy) ShouldMerge(counter uint8, n int) bool {
	if p.cfg.Scheme != Dynamic {
		return false
	}
	if 2*n > p.cfg.MaxSize {
		return false
	}
	return float64(counter) >= p.MergeThreshold(n)
}

// BreakInitial returns the initial break-counter value for a freshly
// merged super block of size n (§4.4.1: 2n), saturated to the counter
// width.
func (p *Policy) BreakInitial(n int) uint8 {
	v := 2 * n
	if v > 255 {
		v = 255
	}
	return uint8(v)
}

// BreakThreshold returns the break-counter threshold for a size-n super
// block; the block breaks when its counter falls below this value.
func (p *Policy) BreakThreshold(n int) float64 {
	if p.cfg.BreakMode == ThresholdStatic {
		// §4.4.1: break when the counter would fall below zero.
		return 0
	}
	return p.equation1(p.cfg.CBreak, n)
}

// ShouldBreak reports whether a size-n super block should break given the
// raw (pre-saturation, possibly negative) counter value after the
// Algorithm 2 update.
func (p *Policy) ShouldBreak(rawCounter int, n int) bool {
	if p.cfg.Scheme != Dynamic || p.cfg.DisableBreak || n < 2 {
		return false
	}
	return float64(rawCounter) < p.BreakThreshold(n)
}

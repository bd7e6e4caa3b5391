// Package audit is an online obliviousness auditor for the simulated
// ORAM: it taps the wire-observable streams the recorder layer already
// carries — physical leaf choices, access start cycles, per-round slot
// accounting — and runs deterministic statistical tests against the
// properties the security argument claims:
//
//   - leaf_uniformity: chi-square goodness-of-fit of binned physical leaf
//     frequencies against the uniform distribution, globally and per
//     partition. Path ORAM remaps every touched block to a fresh uniform
//     leaf, so any bias is a leak (or a broken RNG).
//   - serial_independence: a chi-square contingency test over consecutive
//     (previous bin, next bin) leaf pairs within each partition's stream.
//     Uniform marginals with serial correlation still leak; this catches
//     reuse of stale leaves and correlated remaps.
//   - round_shape: every demand round must issue exactly RoundSlots store
//     accesses per partition, counted from the observed trace (not from
//     the scheduler's own counters — a lying scheduler is the threat).
//   - flush_equality: all partitions of one flush round must issue the
//     same observable number of accesses after padding.
//   - timing_indistinguishability: a two-sample chi-square homogeneity
//     test comparing the within-round inter-access gap distributions of
//     demand and padding slots. If padding accesses are cheaper or slower
//     than demand accesses, the round structure leaks the demand load.
//
// Everything is integer or fixed-point arithmetic: test statistics are
// exact milli-unit integers (big.Int intermediates, floored once) and the
// critical values come from an integer Wilson–Hilferty approximation. Two
// runs that feed identical streams produce byte-identical reports — no
// float accumulation order, no FMA, no platform variance.
//
// Latency is a performance number, not an adversary-observable property:
// the sharded frontend records it in obs histograms (shard.latency_*).
//
// The tests' power is shown on leaks planted into copies of the real
// code, never switched on in it: a remap leaf drawn from half the tree
// (leaf_uniformity) and a demand round whose dummy accesses are dropped
// (round_shape).
//
// An Auditor is not safe for concurrent use. The sharded frontend feeds
// it from the round driver at the commit barrier (the same discipline as
// obs.Recorder); the unified simulator feeds it a recorded trace after
// the run.
package audit

import (
	"fmt"
	"math/bits"

	"proram/internal/obs"
)

// AccessEvent is one wire-observable physical access: the tree leaf it
// touched, its (arbitrated) start cycle, and whether the slot that issued
// it was padding — a dummy read, or work a padding slot was spent on (a
// queued victim's write-back, a background eviction). The dummy bit is
// ground truth the observer of a real
// deployment would not have; the auditor uses it only for the two-sample
// timing test, whose null hypothesis is exactly that the bit is
// unobservable.
type AccessEvent struct {
	Leaf  uint64
	Start uint64
	Dummy bool
}

// ShapeKind classifies a round's slot accounting.
type ShapeKind uint8

const (
	// ShapeDemand is a demand scheduling round (fixed RoundSlots contract).
	ShapeDemand ShapeKind = iota
	// ShapeFlush is the variable write-back half of a flush.
	ShapeFlush
	// ShapePad is the equalizing padding half of a flush.
	ShapePad
)

// Config carries the auditor's knobs. Structural parameters (partitions,
// leaves, round slots) arrive later via Bind, once the trees exist.
type Config struct {
	// Timing arms the real-vs-dummy timing test. Leave it off for systems
	// that do not claim timing-channel protection (the unified controller
	// without Periodic legitimately completes accesses in data-dependent
	// time).
	Timing bool
	// CheckEvery runs the online evaluation every that many observed
	// accesses (0 = 16384). The first failure latches, dumps the flight
	// ring and marks the report failed even if later data dilutes the
	// statistic back under threshold. Online looks hold the chi-square
	// tests to onlineMargin times the critical value (repeated looks at
	// an accumulating statistic would otherwise inflate the false-alarm
	// rate); finalization applies the exact alpha.
	CheckEvery uint64
	// MinSamples gates every test: scopes with fewer observations report
	// "skip" instead of a meaningless verdict (0 = 1024).
	MinSamples uint64
	// Recorder, when enabled, receives an instant event and a flight-ring
	// dump on the first online failure. It must be the same recorder the
	// audited system emits into, touched only between rounds.
	Recorder *obs.Recorder
}

// Auditor accumulates streamed observations and evaluates the test suite
// on demand. Construct with New, size with Bind, feed from one goroutine.
type Auditor struct {
	cfg        Config
	checkEvery uint64
	minSamples uint64

	bound      bool
	parts      int
	leaves     uint64
	roundSlots int

	binShift    uint // leaf >> binShift = uniformity bin
	bins        int
	serialShift uint
	serialBins  int

	accesses  uint64
	lastCycle uint64
	nextCheck uint64

	failed       bool
	firstFailure string
	failedAt     uint64

	global  []uint64 // uniformity bin counts, all partitions pooled
	globalN uint64
	part    [][]uint64 // per-partition uniformity bin counts
	partN   []uint64
	serial  []*serialState
	timing  []*timingState
	shape   shapeState
}

// serialState is one partition's consecutive-leaf contingency table.
type serialState struct {
	prev  int // previous bin, -1 before the first access
	n     uint64
	cells []uint64 // serialBins × serialBins, row = previous bin
}

// timingState is one partition's two-sample gap histograms: within-round
// gaps to the next access, binned by bit length, labeled by whether the
// earlier access belonged to a dummy slot.
type timingState struct {
	real          [gapBins]uint64
	dummy         [gapBins]uint64
	realN, dummyN uint64
}

// gapBins is bits.Len64's range: bin b holds gaps in [2^(b-1), 2^b).
const gapBins = 65

// shapeState is the round-shape accounting.
type shapeState struct {
	demandChecked    uint64
	demandViolations uint64
	demandDetail     string

	flushChecked    uint64
	flushViolations uint64
	flushDetail     string

	// One flush round in flight: per-partition observed lengths
	// (flush + pad), -1 until that partition's flush committed. Flush
	// rounds commit strictly in round order, so a single slot suffices.
	flushRound uint64
	flushLens  []int
	flushOpen  bool
}

// New builds an auditor. It is inert until Bind sizes it.
func New(cfg Config) *Auditor {
	a := &Auditor{cfg: cfg, checkEvery: cfg.CheckEvery, minSamples: cfg.MinSamples}
	if a.checkEvery == 0 {
		a.checkEvery = 16384
	}
	if a.minSamples == 0 {
		a.minSamples = 1024
	}
	a.nextCheck = a.checkEvery
	return a
}

// Bind sizes the auditor for a concrete system: partition count, leaves
// per partition tree (every partition tree is the same size; a power of
// two), and the demand round slot contract (0 disables the demand-shape
// test, for systems without round scheduling). Bind must be called once,
// before any feed.
func (a *Auditor) Bind(parts int, leaves uint64, roundSlots int) error {
	if a.bound {
		if parts == a.parts && leaves == a.leaves && roundSlots == a.roundSlots {
			return nil
		}
		return fmt.Errorf("audit: rebind with different shape (%d/%d/%d vs %d/%d/%d); one auditor audits one system",
			parts, leaves, roundSlots, a.parts, a.leaves, a.roundSlots)
	}
	if parts < 1 {
		return fmt.Errorf("audit: partitions %d must be >= 1", parts)
	}
	if leaves < 2 || leaves&(leaves-1) != 0 {
		return fmt.Errorf("audit: leaves %d must be a power of two >= 2", leaves)
	}
	a.bound = true
	a.parts = parts
	a.leaves = leaves
	a.roundSlots = roundSlots

	a.bins = 64
	if leaves < 64 {
		a.bins = int(leaves)
	}
	a.binShift = uint(bits.TrailingZeros64(leaves)) - uint(bits.TrailingZeros64(uint64(a.bins)))
	a.serialBins = 8
	if leaves < 8 {
		a.serialBins = int(leaves)
	}
	a.serialShift = uint(bits.TrailingZeros64(leaves)) - uint(bits.TrailingZeros64(uint64(a.serialBins)))

	a.global = make([]uint64, a.bins)
	a.part = make([][]uint64, parts)
	a.partN = make([]uint64, parts)
	a.serial = make([]*serialState, parts)
	a.timing = make([]*timingState, parts)
	for i := 0; i < parts; i++ {
		a.part[i] = make([]uint64, a.bins)
		a.serial[i] = &serialState{prev: -1, cells: make([]uint64, a.serialBins*a.serialBins)}
		a.timing[i] = &timingState{}
	}
	a.shape.flushLens = make([]int, parts)
	return nil
}

// Accesses feeds one contiguous chunk of one partition's physical access
// stream — one round's trace in the sharded frontend, the whole recorded
// trace in the unified simulator. Gap labeling for the timing test only
// pairs accesses within a single call, so round boundaries never
// contribute gaps (demand slots lead every round by construction, which
// would otherwise fake a timing signal).
func (a *Auditor) Accesses(part int, events []AccessEvent) { a.feed(part, events, 0) }

// AccessesUntil is Accesses for a chunk whose last access's data was ready
// at end — a sharded round, closed by its partition's clock at the
// barrier. That access's gap runs to end instead of being dropped, so the
// timing test sees every slot of the round: a two-slot round would
// otherwise time only its first, and never a padding slot behind a
// demand one.
func (a *Auditor) AccessesUntil(part int, events []AccessEvent, end uint64) {
	a.feed(part, events, end)
}

// feed ingests one chunk; end closes its last gap, 0 leaves it open.
func (a *Auditor) feed(part int, events []AccessEvent, end uint64) {
	if a == nil || !a.bound || part < 0 || part >= a.parts || len(events) == 0 {
		return
	}
	s := a.serial[part]
	t := a.timing[part]
	for i := range events {
		ev := &events[i]
		bin := int(ev.Leaf >> a.binShift)
		if bin >= a.bins { // out-of-range leaf: clamp, the GoF will flag it
			bin = a.bins - 1
		}
		a.global[bin]++
		a.globalN++
		a.part[part][bin]++
		a.partN[part]++

		sb := int(ev.Leaf >> a.serialShift)
		if sb >= a.serialBins {
			sb = a.serialBins - 1
		}
		if s.prev >= 0 {
			s.cells[s.prev*a.serialBins+sb]++
			s.n++
		}
		s.prev = sb

		if ev.Start > a.lastCycle {
			a.lastCycle = ev.Start
		}
		next, timed := end, end != 0 && end >= ev.Start
		if i+1 < len(events) {
			next, timed = events[i+1].Start, true
		}
		if a.cfg.Timing && timed {
			b := bits.Len64(next - ev.Start)
			if ev.Dummy {
				t.dummy[b]++
				t.dummyN++
			} else {
				t.real[b]++
				t.realN++
			}
		}
	}
	a.accesses += uint64(len(events))
	if a.accesses >= a.nextCheck {
		a.nextCheck = a.accesses + a.checkEvery
		a.onlineCheck()
	}
}

// RoundShape feeds one partition's observed slot count for one round.
// The count must come from wire-observable evidence (the recorded trace's
// slot marks), not from the scheduler's own bookkeeping.
func (a *Auditor) RoundShape(round uint64, part int, kind ShapeKind, slots int) {
	if a == nil || !a.bound || part < 0 || part >= a.parts {
		return
	}
	sh := &a.shape
	switch kind {
	case ShapeDemand:
		sh.demandChecked++
		if a.roundSlots > 0 && slots != a.roundSlots {
			sh.demandViolations++
			if sh.demandDetail == "" {
				sh.demandDetail = fmt.Sprintf("round %d partition %d issued %d observable accesses, contract is %d",
					round, part, slots, a.roundSlots)
			}
			a.latchFailure(fmt.Sprintf("round_shape: %s", sh.demandDetail))
		}
	case ShapeFlush:
		if !sh.flushOpen || sh.flushRound != round {
			a.finishFlushRound()
			sh.flushOpen = true
			sh.flushRound = round
			for i := range sh.flushLens {
				sh.flushLens[i] = -1
			}
		}
		sh.flushLens[part] = slots
	case ShapePad:
		if sh.flushOpen && sh.flushRound == round && sh.flushLens[part] >= 0 {
			sh.flushLens[part] += slots
		}
	}
}

// finishFlushRound closes the in-flight flush round, checking that every
// participating partition issued the same observable access count.
func (a *Auditor) finishFlushRound() {
	sh := &a.shape
	if !sh.flushOpen {
		return
	}
	sh.flushOpen = false
	sh.flushChecked++
	first := -1
	for part, n := range sh.flushLens {
		if n < 0 {
			continue
		}
		if first < 0 {
			first = n
			continue
		}
		if n != first {
			sh.flushViolations++
			if sh.flushDetail == "" {
				sh.flushDetail = fmt.Sprintf("flush round %d: partition %d issued %d accesses, others %d",
					sh.flushRound, part, n, first)
			}
			a.latchFailure(fmt.Sprintf("flush_equality: %s", sh.flushDetail))
			return
		}
	}
}

// onlineMargin is the extra factor a chi-square statistic must exceed
// its critical value by before an *online* look latches a failure. The
// critical values are calibrated for a single test at finalization;
// evaluating the same accumulating statistic every CheckEvery accesses
// is repeated significance testing, and the maximum over hundreds of
// looks crosses a single-look threshold far more often than alpha
// suggests (an honest run can transiently sit a few percent over crit
// and regress as the stream grows). Doubling the bar makes an honest
// excursion a z≈9 event while a leaf draw from half the tree still
// overshoots by 80–400x, so online detection stays immediate for real
// leaks. Finalization applies the exact threshold.
const onlineMargin = 2

// onlineCheck evaluates the armed tests mid-run and latches the first
// failure. Counting tests (round shape, flush equality) latch on any
// violation; the chi-square tests must clear onlineMargin (see above).
func (a *Auditor) onlineCheck() {
	for _, tr := range a.evaluate() {
		if tr.Status != statusFail {
			continue
		}
		if tr.Violations == 0 && tr.StatMilli < onlineMargin*tr.CritMilli {
			continue
		}
		a.latchFailure(fmt.Sprintf("%s[%s]: stat %dm > crit %dm (n=%d)",
			tr.Name, tr.Scope, tr.StatMilli, tr.CritMilli, tr.N))
		return
	}
}

// latchFailure records the first failure and dumps the flight ring so the
// events leading up to the detected leak are preserved.
func (a *Auditor) latchFailure(detail string) {
	if a.failed {
		return
	}
	a.failed = true
	a.firstFailure = detail
	a.failedAt = a.accesses
	if rec := a.cfg.Recorder; rec.Enabled() {
		rec.Instant("audit", "audit_fail", a.lastCycle, "accesses", a.accesses)
		rec.Flight("audit failure: "+detail, a.lastCycle)
	}
}

package oram

// Dynamic Oint (§2.5): the paper notes that timing protection with a
// dynamically-changing access interval [9] "provides better performance"
// and "can be used with the techniques proposed in this paper if small
// data leakage is allowed". This file implements that extension in the
// style of Fletcher et al. (HPCA'14): the interval moves within a public
// ladder of power-of-two multiples of Oint, transitions happen only at
// epoch boundaries, and each transition leaks at most one bit (whether the
// program was memory-hungry this epoch) — the controller counts them.
//
// The schedule remains deterministic *given the transition history*: the
// adversary learns only the epoch decisions, which is exactly the bounded
// leak the scheme declares.

// dynOint holds the adaptive-interval state.
type dynOint struct {
	enabled bool
	cur     uint64 // current interval
	min     uint64
	max     uint64

	epochAccesses int
	epochDummies  int
	transitions   uint64
}

// ointEpoch is the number of scheduled accesses per adaptation decision.
const ointEpoch = 64

// initDynOint configures the ladder from the controller config.
func (c *Controller) initDynOint() {
	if !c.cfg.DynamicOint {
		return
	}
	min := c.cfg.Oint
	max := c.cfg.OintMax
	if max < min {
		max = min * 16
	}
	c.dyn = dynOint{enabled: true, cur: min, min: min, max: max}
}

// currentOint returns the interval in force.
func (c *Controller) currentOint() uint64 {
	if c.dyn.enabled {
		return c.dyn.cur
	}
	return c.cfg.Oint
}

// observeScheduled records one scheduled access (real or dummy) and adapts
// the interval at epoch boundaries.
func (c *Controller) observeScheduled(dummy bool) {
	if !c.dyn.enabled {
		return
	}
	c.dyn.epochAccesses++
	if dummy {
		c.dyn.epochDummies++
	}
	if c.dyn.epochAccesses < ointEpoch {
		return
	}
	frac := float64(c.dyn.epochDummies) / float64(c.dyn.epochAccesses)
	moved := false
	switch {
	case frac > 0.5 && c.dyn.cur < c.dyn.max:
		// Mostly idle: slow the public clock to save bandwidth/energy.
		c.dyn.cur *= 2
		moved = true
	case frac < 0.1 && c.dyn.cur > c.dyn.min:
		// Demand-bound: speed the clock back up.
		c.dyn.cur /= 2
		moved = true
	}
	if moved {
		c.dyn.transitions++
		c.obs.Instant("oram", "oint-transition", c.lastEnd, "oint", c.dyn.cur)
	}
	c.dyn.epochAccesses = 0
	c.dyn.epochDummies = 0
}

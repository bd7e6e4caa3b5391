package audit

import "math/bits"

// Fixed-point helpers. The auditor never touches floating point on any
// path that reaches a report: float rounding depends on accumulation
// order and (with FMA contraction) on the platform, and the reports are
// pinned byte-for-byte in CI.

// isqrt returns floor(sqrt(x)).
func isqrt(x uint64) uint64 {
	if x == 0 {
		return 0
	}
	// Newton's method from a power-of-two overestimate; converges in a
	// handful of iterations and is exact at the fixed point.
	r := uint64(1) << ((bits.Len64(x) + 1) / 2)
	for {
		n := (r + x/r) / 2
		if n >= r {
			return r
		}
		r = n
	}
}

// critMilli returns the chi-square critical value at significance
// alpha = 1e-5 for df degrees of freedom, in milli-units, via the
// Wilson–Hilferty cube approximation evaluated in micro fixed point:
//
//	crit ≈ df · (1 − 2/(9·df) + z·sqrt(2/(9·df)))³,  z₁₋₁ₑ₋₅ = 4.264890
//
// The approximation is within ~0.2% of the exact quantile for df ≥ 3 and
// a few percent high at df = 1..2 — high, i.e. conservative: the auditor
// under-flags, never over-flags, near the threshold. Exactness does not
// matter here (real leaks blow through the threshold by orders of
// magnitude); determinism does.
//
// Alpha is deliberately far below the conventional 0.001: one audited run
// evaluates dozens of (test, scope) pairs, so a per-test alpha of 1e-3
// gives the whole suite a few-percent false-alarm rate on an honest
// system, while a leaf draw from half the tree exceeds these thresholds
// by two orders of magnitude. 1e-5 keeps the family-wise false-alarm rate
// well under 0.1% at full power against such leaks.
func critMilli(df int) uint64 {
	if df < 1 {
		df = 1
	}
	d := uint64(df)
	const zMicro = 4_264_890
	// s = sqrt(2/(9·df)) in micro units: sqrt(2e12/(9·df)).
	s := isqrt(2_000_000_000_000 / (9 * d))
	inner := 1_000_000 - 2_000_000/(9*d) + zMicro*s/1_000_000
	sq := inner * inner / 1_000_000
	cu := sq * inner / 1_000_000
	return d * cu / 1_000
}

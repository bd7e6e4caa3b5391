package audit

import (
	"bytes"
	"strings"
	"testing"

	"proram/internal/obs"
)

// lcg is a tiny deterministic generator for test streams (keeps the
// package's tests free of the simulator's seeded rng plumbing).
type lcg struct{ x uint64 }

func (l *lcg) next() uint64 {
	l.x = l.x*6364136223846793005 + 1442695040888963407
	return l.x >> 11
}

func uniformEvents(n int, leaves uint64, seed uint64) []AccessEvent {
	g := &lcg{x: seed}
	evs := make([]AccessEvent, n)
	var t uint64
	for i := range evs {
		t += 100
		evs[i] = AccessEvent{Leaf: g.next() & (leaves - 1), Start: t}
	}
	return evs
}

func newBound(t *testing.T, parts int, leaves uint64, slots int, cfg Config) *Auditor {
	t.Helper()
	a := New(cfg)
	if err := a.Bind(parts, leaves, slots); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	return a
}

func TestCritMilliSane(t *testing.T) {
	// Exact alpha=1e-5 quantiles: df=1 → 19.51, df=10 → 41.30,
	// df=63 → 122.8. Wilson–Hilferty must land within a few percent,
	// erring high (conservative) at low df.
	cases := []struct {
		df     int
		lo, hi uint64
	}{
		{1, 19_511, 22_500},
		{10, 41_000, 43_500},
		{63, 121_500, 126_000},
	}
	for _, c := range cases {
		got := critMilli(c.df)
		if got < c.lo || got > c.hi {
			t.Errorf("critMilli(%d) = %d, want in [%d, %d]", c.df, got, c.lo, c.hi)
		}
	}
	prev := uint64(0)
	for df := 1; df <= 64; df++ {
		v := critMilli(df)
		if v <= prev {
			t.Fatalf("critMilli not increasing at df=%d: %d <= %d", df, v, prev)
		}
		prev = v
	}
}

func TestFixedHelpers(t *testing.T) {
	if got := isqrt(0); got != 0 {
		t.Errorf("isqrt(0) = %d", got)
	}
	for _, x := range []uint64{1, 2, 3, 4, 15, 16, 1 << 40, ^uint64(0)} {
		r := isqrt(x)
		if r*r > x {
			t.Errorf("isqrt(%d) = %d overshoots", x, r)
		}
		if r < (1<<32)-1 && (r+1)*(r+1) <= x {
			t.Errorf("isqrt(%d) = %d undershoots", x, r)
		}
	}
}

func TestUniformStreamPasses(t *testing.T) {
	a := newBound(t, 2, 1024, 0, Config{})
	a.Accesses(0, uniformEvents(20_000, 1024, 7))
	a.Accesses(1, uniformEvents(20_000, 1024, 9))
	rep := a.Report()
	if !rep.Pass {
		t.Fatalf("uniform stream flagged: %v", rep.Findings)
	}
	if rep.Accesses != 40_000 {
		t.Errorf("accesses = %d", rep.Accesses)
	}
}

func TestBiasedLeavesFlagged(t *testing.T) {
	a := newBound(t, 1, 1024, 0, Config{CheckEvery: 2048})
	evs := uniformEvents(8_000, 1024, 3)
	for i := range evs {
		evs[i].Leaf &= 511 // lower half only
	}
	a.Accesses(0, evs)
	rep := a.Report()
	if rep.Pass {
		t.Fatal("biased leaf stream not flagged")
	}
	found := false
	for _, f := range rep.Findings {
		if strings.Contains(f, "leaf_uniformity") {
			found = true
		}
	}
	if !found {
		t.Errorf("no leaf_uniformity finding in %v", rep.Findings)
	}
	if !a.failed {
		t.Error("online check did not latch")
	}
}

func TestSerialCorrelationFlagged(t *testing.T) {
	// A sequential leaf walk: the marginal distribution is exactly
	// uniform (every leaf equally often), but each access almost always
	// stays in its predecessor's bin — pure serial correlation.
	a := newBound(t, 1, 1024, 0, Config{})
	evs := make([]AccessEvent, 16_000)
	var ts uint64
	for i := range evs {
		ts += 100
		evs[i] = AccessEvent{Leaf: uint64(i) & 1023, Start: ts}
	}
	a.Accesses(0, evs)
	rep := a.Report()
	if rep.Pass {
		t.Fatal("serially correlated stream not flagged")
	}
	var uniFail, serFail bool
	for _, tr := range rep.Tests {
		if tr.Status != statusFail {
			continue
		}
		switch tr.Name {
		case "leaf_uniformity":
			uniFail = true
		case "serial_independence":
			serFail = true
		}
	}
	if uniFail {
		t.Error("marginally uniform stream failed the GoF test")
	}
	if !serFail {
		t.Error("serial_independence did not fail")
	}
}

func TestTimingLeakFlagged(t *testing.T) {
	// Real slots complete in 100 cycles, dummies in 2000: the two-sample
	// test must separate them.
	a := newBound(t, 1, 256, 0, Config{Timing: true})
	g := &lcg{x: 4}
	evs := make([]AccessEvent, 4_000)
	var ts uint64
	for i := range evs {
		dummy := i%2 == 1
		evs[i] = AccessEvent{Leaf: g.next() & 255, Start: ts, Dummy: dummy}
		if dummy {
			ts += 2000
		} else {
			ts += 100
		}
	}
	a.Accesses(0, evs)
	rep := a.Report()
	if rep.Pass {
		t.Fatal("timing leak not flagged")
	}
	stat, crit := rep.Worst("timing_indistinguishability")
	if stat <= crit {
		t.Errorf("timing stat %d not above crit %d", stat, crit)
	}
}

func TestTimingClosedChunkTimesLastAccess(t *testing.T) {
	// Two-access chunks, real first and padding last: padding completes in
	// 2000 cycles, real in 100. Open chunks never time the padding, so the
	// test has no second population; chunks closed at their end do.
	open := newBound(t, 1, 256, 0, Config{Timing: true})
	closed := newBound(t, 1, 256, 0, Config{Timing: true})
	g := &lcg{x: 5}
	var ts uint64
	for range 2_000 {
		evs := []AccessEvent{
			{Leaf: g.next() & 255, Start: ts},
			{Leaf: g.next() & 255, Start: ts + 100, Dummy: true},
		}
		ts += 2100
		open.Accesses(0, evs)
		closed.AccessesUntil(0, evs, ts)
	}
	for _, tr := range open.Report().Tests {
		if tr.Name == "timing_indistinguishability" && tr.Status != statusSkip {
			t.Errorf("open chunks: timing test %s, want skip (no padding gap)", tr.Status)
		}
	}
	if rep := closed.Report(); rep.Pass {
		t.Fatal("closed chunks: padding-slot timing leak not flagged")
	}
}

func TestTimingSameDistributionPasses(t *testing.T) {
	// Gap alternates 100/2000 independently of the dummy bit (period-2
	// dummy pattern, period-4 gap pattern): both populations see the same
	// 50/50 mix.
	a := newBound(t, 1, 256, 0, Config{Timing: true})
	g := &lcg{x: 8}
	evs := make([]AccessEvent, 4_000)
	var ts uint64
	for i := range evs {
		evs[i] = AccessEvent{Leaf: g.next() & 255, Start: ts, Dummy: i%2 == 1}
		if i%4 < 2 {
			ts += 100
		} else {
			ts += 2000
		}
	}
	a.Accesses(0, evs)
	rep := a.Report()
	if !rep.Pass {
		t.Fatalf("identical timing distributions flagged: %v", rep.Findings)
	}
}

func TestRoundShapeViolationFlagged(t *testing.T) {
	a := newBound(t, 2, 64, 8, Config{})
	a.RoundShape(0, 0, ShapeDemand, 8)
	a.RoundShape(0, 1, ShapeDemand, 8)
	a.RoundShape(1, 0, ShapeDemand, 7)
	rep := a.Report()
	if rep.Pass {
		t.Fatal("short round not flagged")
	}
	if v := rep.Violations("round_shape"); v != 1 {
		t.Errorf("round_shape violations = %d, want 1", v)
	}
	if !a.failed {
		t.Error("shape violation did not latch immediately")
	}
}

func TestFlushEqualityFlagged(t *testing.T) {
	a := newBound(t, 2, 64, 8, Config{})
	a.RoundShape(5, 0, ShapeFlush, 3)
	a.RoundShape(5, 1, ShapeFlush, 1)
	a.RoundShape(5, 0, ShapePad, 0)
	a.RoundShape(5, 1, ShapePad, 1) // 3 vs 2 after padding: unequal
	rep := a.Report()
	if rep.Pass {
		t.Fatal("unequal flush not flagged")
	}
	if v := rep.Violations("flush_equality"); v != 1 {
		t.Errorf("flush_equality violations = %d, want 1", v)
	}

	b := newBound(t, 2, 64, 8, Config{})
	b.RoundShape(5, 0, ShapeFlush, 3)
	b.RoundShape(5, 1, ShapeFlush, 1)
	b.RoundShape(5, 0, ShapePad, 0)
	b.RoundShape(5, 1, ShapePad, 2) // equalized
	if rep := b.Report(); !rep.Pass {
		t.Fatalf("equalized flush flagged: %v", rep.Findings)
	}
}

func TestSmallSamplesSkip(t *testing.T) {
	a := newBound(t, 1, 1024, 0, Config{})
	a.Accesses(0, uniformEvents(10, 1024, 5))
	rep := a.Report()
	if !rep.Pass {
		t.Fatalf("tiny sample flagged: %v", rep.Findings)
	}
	for _, tr := range rep.Tests {
		if tr.Name == "leaf_uniformity" && tr.Status != statusSkip {
			t.Errorf("leaf_uniformity at n=10 is %q, want skip", tr.Status)
		}
	}
}

// TestDigestQuantiles holds the latency digest the auditor used to keep to
// the same contract now that latency tails live in obs histograms: the
// quantiles of a stream are monotone and bounded by its maximum, an empty
// digest reports zero, and a single value lands inside its own bin.
func TestDigestQuantiles(t *testing.T) {
	var reg obs.Registry
	d := reg.Histogram("latency")
	for v := uint64(1); v <= 1000; v++ {
		d.Observe(v)
	}
	p50 := d.Quantile(50, 100)
	p99 := d.Quantile(99, 100)
	p999 := d.Quantile(999, 1000)
	if p50 < 256 || p50 > 768 {
		t.Errorf("p50 = %d, want near 500", p50)
	}
	if !(p50 <= p99 && p99 <= p999 && p999 <= 1000) {
		t.Errorf("quantiles not monotone within the max: %d %d %d", p50, p99, p999)
	}
	var empty obs.Histogram
	if empty.Quantile(50, 100) != 0 {
		t.Error("empty digest has a median")
	}
	var one obs.Histogram
	one.Observe(42)
	if got := one.Quantile(50, 100); got < 32 || got > 63 {
		t.Errorf("single-value p50 = %d, want within its bin", got)
	}
}

func TestReportByteDeterminism(t *testing.T) {
	run := func() []byte {
		a := newBound(t, 2, 512, 6, Config{Timing: true})
		a.Accesses(0, uniformEvents(5_000, 512, 11))
		a.Accesses(1, uniformEvents(5_000, 512, 13))
		for r := uint64(0); r < 10; r++ {
			a.RoundShape(r, 0, ShapeDemand, 6)
			a.RoundShape(r, 1, ShapeDemand, 6)
		}
		var buf bytes.Buffer
		if err := a.Report().WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("two identical feeds produced different report bytes")
	}
}

func TestBindValidation(t *testing.T) {
	a := New(Config{})
	if err := a.Bind(1, 100, 0); err == nil {
		t.Error("non-power-of-two leaves accepted")
	}
	if err := a.Bind(0, 64, 0); err == nil {
		t.Error("zero partitions accepted")
	}
	if err := a.Bind(2, 64, 4); err != nil {
		t.Fatalf("valid bind rejected: %v", err)
	}
	if err := a.Bind(2, 64, 4); err != nil {
		t.Errorf("idempotent rebind rejected: %v", err)
	}
	if err := a.Bind(3, 64, 4); err == nil {
		t.Error("conflicting rebind accepted")
	}
	if a.Report(); !a.bound {
		t.Error("not bound after Bind")
	}
	var nilA *Auditor
	nilA.Accesses(0, nil)
	nilA.RoundShape(0, 0, ShapeDemand, 1)
	if rep := nilA.Report(); rep.Pass != false || len(rep.Tests) != 0 {
		t.Error("nil auditor report not empty")
	}
}

func TestSuite(t *testing.T) {
	var s Suite
	if !s.Pass() {
		t.Error("empty suite should pass")
	}
	var none *Suite
	none.Add("ignored", New(Config{}).Report()) // a nil suite collects nothing
	a := newBound(t, 1, 1024, 0, Config{})
	a.Accesses(0, uniformEvents(5_000, 1024, 17))
	s.Add("green", a.Report())
	if !s.Pass() {
		t.Error("green suite should pass")
	}
	b := newBound(t, 1, 64, 4, Config{})
	b.RoundShape(0, 0, ShapeDemand, 3)
	s.Add("red", b.Report())
	if s.Pass() {
		t.Error("suite with a failing section should fail")
	}
	var buf1, buf2 bytes.Buffer
	if err := s.WriteJSON(&buf1); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := s.WriteJSON(&buf2); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Error("suite serialization not deterministic")
	}
}

// An online look must not latch a chi-square excursion that clears crit
// but not onlineMargin*crit: the same accumulating statistic is looked
// at every CheckEvery accesses, and honest runs transiently wander a
// few percent over a single-look threshold. A real leak overshoots by
// an order of magnitude and must still latch immediately.
func TestOnlineMarginSuppressesTransients(t *testing.T) {
	mk := func(delta uint64) *Auditor {
		a := newBound(t, 1, 64, 0, Config{})
		// 64 bins, 1000 per bin, +-delta on one pair: chi2 = 2*delta^2/1000.
		for i := range a.global {
			a.global[i] = 1000
			a.part[0][i] = 1000
		}
		a.global[0] += delta
		a.global[1] -= delta
		a.part[0][0] += delta
		a.part[0][1] -= delta
		a.globalN = 64 * 1000
		a.partN[0] = 64 * 1000
		return a
	}

	// crit(63) ~ 123.0; delta=300 -> chi2 = 180: over crit, under 2x.
	a := mk(300)
	var failing int
	for _, tr := range a.evaluate() {
		if tr.Status == statusFail {
			failing++
			if tr.StatMilli >= onlineMargin*tr.CritMilli {
				t.Fatalf("%s[%s]: stat %dm not in the (crit, margin*crit) window (crit %dm)",
					tr.Name, tr.Scope, tr.StatMilli, tr.CritMilli)
			}
		}
	}
	if failing == 0 {
		t.Fatal("transient excursion did not exceed crit; test is vacuous")
	}
	a.onlineCheck()
	if a.failed {
		t.Fatalf("online look latched a sub-margin excursion: %s", a.firstFailure)
	}

	// delta=600 -> chi2 = 720: far over margin, must latch.
	b := mk(600)
	b.onlineCheck()
	if !b.failed {
		t.Fatal("online look missed a leak-sized excursion")
	}
}

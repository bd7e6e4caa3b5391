package oram

import (
	"testing"

	"proram/internal/rng"
)

func dynOintConfig() Config {
	cfg := testConfig()
	cfg.Periodic = true
	cfg.Oint = 50
	cfg.DynamicOint = true
	cfg.OintMax = 800
	return cfg
}

func TestDynamicOintValidation(t *testing.T) {
	cfg := testConfig()
	cfg.DynamicOint = true
	if _, err := New(cfg); err == nil {
		t.Fatal("DynamicOint without Periodic accepted")
	}
	cfg = dynOintConfig()
	cfg.OintMax = 10 // below Oint
	if _, err := New(cfg); err == nil {
		t.Fatal("OintMax < Oint accepted")
	}
}

func TestDynamicOintGrowsWhenIdle(t *testing.T) {
	c, err := New(dynOintConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.currentOint() != 50 {
		t.Fatalf("initial interval %d", c.currentOint())
	}
	// Requests separated by long idle gaps: the schedule fills with
	// dummies and the interval should climb the ladder.
	r := rng.New(3)
	for i := 0; i < 50; i++ {
		gap := uint64(40_000)
		c.Read(c.Stats().LastEnd+gap, r.Uint64n(256))
	}
	if c.currentOint() <= 50 {
		t.Fatalf("interval did not grow under idle load: %d", c.currentOint())
	}
	if c.dyn.transitions == 0 {
		t.Fatal("no transitions recorded (leak accounting broken)")
	}
}

func TestDynamicOintShrinksUnderLoad(t *testing.T) {
	c, err := New(dynOintConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Grow first.
	r := rng.New(5)
	for i := 0; i < 40; i++ {
		c.Read(c.Stats().LastEnd+40_000, r.Uint64n(256))
	}
	grown := c.currentOint()
	if grown <= 50 {
		t.Fatalf("interval did not grow in the idle phase: %d", grown)
	}
	// Back-to-back demand: the interval must fall back toward the floor.
	for i := 0; i < 400; i++ {
		c.Read(c.Stats().LastEnd, r.Uint64n(256))
	}
	if c.currentOint() >= grown {
		t.Fatalf("interval did not shrink under load: %d (was %d)", c.currentOint(), grown)
	}
}

func TestDynamicOintRespectsLadderBounds(t *testing.T) {
	cfg := dynOintConfig()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	// Extreme idle: must cap at OintMax.
	for i := 0; i < 300; i++ {
		c.Read(c.Stats().LastEnd+200_000, r.Uint64n(256))
	}
	if c.currentOint() > cfg.OintMax {
		t.Fatalf("interval %d exceeded ladder max %d", c.currentOint(), cfg.OintMax)
	}
	// Extreme load: must floor at Oint.
	for i := 0; i < 2000; i++ {
		c.Read(c.Stats().LastEnd, r.Uint64n(256))
	}
	if c.currentOint() < cfg.Oint {
		t.Fatalf("interval %d fell below ladder min %d", c.currentOint(), cfg.Oint)
	}
}

func TestDynamicOintSavesDummies(t *testing.T) {
	run := func(dynamic bool) Stats {
		cfg := dynOintConfig()
		cfg.DynamicOint = dynamic
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(11)
		for i := 0; i < 60; i++ {
			c.Read(c.Stats().LastEnd+50_000, r.Uint64n(512))
		}
		return c.Stats()
	}
	static := run(false)
	dyn := run(true)
	if dyn.DummyAccesses >= static.DummyAccesses {
		t.Fatalf("dynamic Oint saved nothing: %d vs %d dummies",
			dyn.DummyAccesses, static.DummyAccesses)
	}
	// The savings must be substantial on an idle-heavy pattern.
	if float64(dyn.DummyAccesses) > 0.6*float64(static.DummyAccesses) {
		t.Errorf("dynamic Oint saved only %d -> %d dummies",
			static.DummyAccesses, dyn.DummyAccesses)
	}
}

func TestDynamicOintInvariantsHold(t *testing.T) {
	cfg := dynOintConfig()
	cfg.NumBlocks = 1 << 10
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(13)
	for i := 0; i < 1500; i++ {
		gap := uint64(0)
		if r.Intn(3) == 0 {
			gap = r.Uint64n(30_000)
		}
		idx := r.Uint64n(cfg.NumBlocks)
		if r.Bool() {
			c.Read(c.Stats().LastEnd+gap, idx)
		} else {
			c.Write(c.Stats().LastEnd+gap, idx)
		}
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestStaticOintUnaffectedByExtension(t *testing.T) {
	// With DynamicOint off, the interval never moves and no transitions
	// are recorded, whatever the load pattern.
	cfg := testConfig()
	cfg.Periodic = true
	cfg.Oint = 100
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(17)
	for i := 0; i < 200; i++ {
		c.Read(c.Stats().LastEnd+r.Uint64n(20_000), r.Uint64n(256))
	}
	if c.currentOint() != 100 || c.dyn.transitions != 0 {
		t.Fatalf("static schedule drifted: Oint=%d transitions=%d",
			c.currentOint(), c.dyn.transitions)
	}
}

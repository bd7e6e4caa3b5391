package oram

import (
	"strings"
	"testing"
)

// validStats returns a snapshot satisfying every accounting identity.
func validStats() Stats {
	return Stats{
		DemandReads: 10, Writebacks: 4,
		PathAccesses: 30, DataPaths: 10, WritebackPaths: 4, PosMapPaths: 10,
		BackgroundEvictions: 5, DummyAccesses: 1,
		PrefetchIssued: 6, PrefetchHits: 3, PrefetchUnused: 2,
		BusyCycles: 3000,
		KindCycles: [NumKinds]uint64{KindData: 1000, KindPosMap: 1000, KindWriteback: 400, KindBackgroundEvict: 500, KindPeriodicDummy: 100},
	}
}

func TestStatsValidate(t *testing.T) {
	if err := (Stats{}).Validate(); err != nil {
		t.Fatalf("zero stats invalid: %v", err)
	}
	if err := validStats().Validate(); err != nil {
		t.Fatalf("consistent stats invalid: %v", err)
	}

	breakages := []struct {
		name    string
		mutate  func(*Stats)
		wantSub string
	}{
		{"kind sum", func(s *Stats) { s.BackgroundEvictions++ }, "per-kind paths"},
		{"lost path", func(s *Stats) { s.PathAccesses-- }, "per-kind paths"},
		{"data paths", func(s *Stats) { s.DataPaths++; s.PathAccesses++ }, "demand reads"},
		{"writeback paths", func(s *Stats) { s.Writebacks++ }, "writebacks"},
		{"prefetch outcomes", func(s *Stats) { s.PrefetchHits = 5 }, "prefetch outcomes"},
		{"kind cycles", func(s *Stats) { s.KindCycles[KindPosMap]++ }, "per-kind cycles"},
		{"lost cycles", func(s *Stats) { s.BusyCycles-- }, "per-kind cycles"},
	}
	for _, b := range breakages {
		s := validStats()
		b.mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: broken stats accepted", b.name)
			continue
		}
		if !strings.Contains(err.Error(), b.wantSub) {
			t.Errorf("%s: error %q does not mention %q", b.name, err, b.wantSub)
		}
	}
}

// TestControllerStatsValidate drives a real controller and checks that its
// cumulative snapshot satisfies the identities Validate enforces.
func TestControllerStatsValidate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumBlocks = 1 << 14
	cfg.OnChipEntries = 64
	cfg.Prefill = true
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	for i := uint64(0); i < 500; i++ {
		idx := (i * 37) % cfg.NumBlocks
		var res Result
		if i%4 == 3 {
			res = c.Write(now, idx)
		} else {
			res = c.Read(now, idx)
		}
		now = res.Done
	}
	if err := c.Stats().Validate(); err != nil {
		t.Fatal(err)
	}
}

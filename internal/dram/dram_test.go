package dram

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []Config{
		{LatencyCycles: 0, BandwidthGBps: 16, ClockGHz: 1, Banks: 8},
		{LatencyCycles: 100, BandwidthGBps: 0, ClockGHz: 1, Banks: 8},
		{LatencyCycles: 100, BandwidthGBps: 16, ClockGHz: 0, Banks: 8},
		{LatencyCycles: 100, BandwidthGBps: 16, ClockGHz: 1, Banks: 0},
		// Non-finite and unrepresentable rates: NaN survives a `<= 0` test,
		// and converting any of these to uint64 is implementation-defined.
		{LatencyCycles: 100, BandwidthGBps: math.NaN(), ClockGHz: 1, Banks: 8},
		{LatencyCycles: 100, BandwidthGBps: math.Inf(1), ClockGHz: 1, Banks: 8},
		{LatencyCycles: 100, BandwidthGBps: 16, ClockGHz: math.NaN(), Banks: 8},
		{LatencyCycles: 100, BandwidthGBps: 16, ClockGHz: math.Inf(1), Banks: 8},
		{LatencyCycles: 100, BandwidthGBps: 1e300, ClockGHz: 1, Banks: 8},
		{LatencyCycles: 100, BandwidthGBps: 16, ClockGHz: 1e-300, Banks: 8},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid config %+v", i, c)
		}
	}
}

func TestBytesPerCycle(t *testing.T) {
	c := DefaultConfig()
	if got := c.BytesPerCycle(); got != 16 {
		t.Fatalf("BytesPerCycle = %v, want 16", got)
	}
	c.ClockGHz = 2
	if got := c.BytesPerCycle(); got != 8 {
		t.Fatalf("BytesPerCycle at 2GHz = %v, want 8", got)
	}
}

func TestSingleAccessLatency(t *testing.T) {
	m := New(DefaultConfig())
	done := m.Access(0, 0, 128)
	// Flat latency dominates a single line access.
	if done != 100 {
		t.Fatalf("single access completion = %d, want 100", done)
	}
}

func TestIndependentBanksOverlap(t *testing.T) {
	m := New(DefaultConfig())
	// Two accesses to different 4KB pages land in different banks and
	// should overlap almost completely.
	d1 := m.Access(0, 0, 128)
	d2 := m.Access(0, 4096, 128)
	if d2 >= d1+100 {
		t.Fatalf("bank parallelism missing: d1=%d d2=%d", d1, d2)
	}
}

func TestSameBankSerializes(t *testing.T) {
	m := New(DefaultConfig())
	d1 := m.Access(0, 0, 128)
	d2 := m.Access(0, 0, 128) // same page => same bank
	if d2 < d1+100 {
		t.Fatalf("same-bank accesses overlapped: d1=%d d2=%d", d1, d2)
	}
}

func TestChannelBandwidthBoundsThroughput(t *testing.T) {
	m := New(DefaultConfig())
	// Saturate with accesses spread across banks; steady-state throughput
	// must be limited by the 16 B/cycle channel: 128B per 8 cycles.
	var done uint64
	const n = 1000
	for i := 0; i < n; i++ {
		done = m.Access(0, uint64(i)*4096, 128)
	}
	minCycles := uint64(n * 128 / 16)
	if done < minCycles {
		t.Fatalf("throughput exceeds channel bandwidth: %d accesses done at %d < %d", n, done, minCycles)
	}
}

func TestBulkTransferTiming(t *testing.T) {
	m := New(DefaultConfig())
	// 19968 bytes at 16 B/cycle = 1248 cycles, plus 100 extra latency.
	done := m.BulkTransfer(0, 19968, 100)
	if done != 1348 {
		t.Fatalf("BulkTransfer completion = %d, want 1348", done)
	}
}

func TestBulkTransferSerializes(t *testing.T) {
	m := New(DefaultConfig())
	d1 := m.BulkTransfer(0, 1600, 0) // 100 cycles
	d2 := m.BulkTransfer(0, 1600, 0)
	if d2 != d1+100 {
		t.Fatalf("bulk transfers did not serialize: d1=%d d2=%d", d1, d2)
	}
	// A line access issued during a bulk transfer waits for it.
	m = New(DefaultConfig())
	m.BulkTransfer(0, 1600, 0)
	if done := m.Access(0, 0, 128); done < 100 {
		t.Fatalf("line access overlapped bulk transfer: done=%d", done)
	}
}

func TestStatsAccounting(t *testing.T) {
	m := New(DefaultConfig())
	m.Access(0, 0, 128)
	m.BulkTransfer(200, 1600, 0)
	s := m.Stats()
	if s.Accesses != 1 || s.BulkTransfers != 1 {
		t.Fatalf("stats counts wrong: %+v", s)
	}
	if s.BytesMoved != 128+1600 {
		t.Fatalf("BytesMoved = %d, want %d", s.BytesMoved, 128+1600)
	}
}

func TestCompletionMonotoneInTime(t *testing.T) {
	cfg := DefaultConfig()
	check := func(now1, now2 uint32, addr uint64) bool {
		if now1 > now2 {
			now1, now2 = now2, now1
		}
		m1 := New(cfg)
		m2 := New(cfg)
		d1 := m1.Access(uint64(now1), addr, 128)
		d2 := m2.Access(uint64(now2), addr, 128)
		return d2 >= d1 && d1 >= uint64(now1)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTransferNeverZero(t *testing.T) {
	m := New(DefaultConfig())
	d := m.BulkTransfer(0, 1, 0)
	if d == 0 {
		t.Fatal("zero-cycle transfer for 1 byte")
	}
}

// TestTransferCyclesExactCeil pins the fixed-point transfer arithmetic:
// exact integer ceil division on the bytes-per-1024-cycles rate, matching
// hand-computed values for both divisible and fractional rates.
func TestTransferCyclesExactCeil(t *testing.T) {
	cfg := DefaultConfig() // 16 B/cycle -> rate 16384
	if got := cfg.RatePer1024(); got != 16*1024 {
		t.Fatalf("RatePer1024 = %d, want %d", got, 16*1024)
	}
	cases := []struct{ bytes, want uint64 }{
		{16, 1}, {17, 2}, {32, 2}, {15360, 960}, {15361, 961}, {0, 1},
	}
	for _, c := range cases {
		if got := cfg.TransferCycles(c.bytes); got != c.want {
			t.Errorf("TransferCycles(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
	// A fractional rate (12.8 B/cycle -> 13107.2 -> 13107): pure integer
	// ceil, no float in the per-access path.
	frac := cfg
	frac.BandwidthGBps = 12.8
	if got := frac.RatePer1024(); got != 13107 {
		t.Fatalf("fractional RatePer1024 = %d, want 13107", got)
	}
	if got := frac.TransferCycles(128); got != (128*1024+13106)/13107 {
		t.Errorf("fractional TransferCycles(128) = %d", got)
	}
}

// TestFlatDevice: the flat device ignores the leaf and completes every
// phase of a path access Latency cycles after it was handed over.
func TestFlatDevice(t *testing.T) {
	var dev Device = Flat{Latency: 2364}
	for _, leaf := range []uint64{0, 7, 1 << 20} {
		pt := dev.Path(500, leaf)
		if want := (PathTiming{Start: 500, ReadDone: 2864, DataReady: 2864, Done: 2864}); pt != want {
			t.Fatalf("leaf %d: %+v, want %+v", leaf, pt, want)
		}
	}
}

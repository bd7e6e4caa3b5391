package proram

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"proram/internal/rng"
)

func testRAM(t *testing.T, mutate func(*Config)) *RAM {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Blocks = 1 << 12
	cfg.CacheBlocks = 64
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRAMReadYourWrites(t *testing.T) {
	r := testRAM(t, nil)
	msg := []byte("hello oblivious world")
	if err := r.Write(17, msg); err != nil {
		t.Fatal(err)
	}
	got, err := r.Read(17)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(msg)], msg) {
		t.Fatalf("read back %q", got[:len(msg)])
	}
	// Unwritten blocks read as zeros.
	zero, err := r.Read(18)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range zero {
		if b != 0 {
			t.Fatal("unwritten block not zero")
		}
	}
}

func TestRAMSurvivesCachePressure(t *testing.T) {
	r := testRAM(t, nil)
	// Write far more blocks than the cache holds, then read them all back.
	rnd := rng.New(7)
	want := map[uint64]byte{}
	for i := 0; i < 500; i++ {
		idx := rnd.Uint64n(r.Blocks())
		v := byte(rnd.Uint64n(255) + 1)
		want[idx] = v
		if err := r.Write(idx, []byte{v}); err != nil {
			t.Fatal(err)
		}
	}
	for idx, v := range want {
		got, err := r.Read(idx)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != v {
			t.Fatalf("block %d = %d, want %d", idx, got[0], v)
		}
	}
	s := r.Stats()
	if s.PathAccesses == 0 || s.CacheHits == 0 {
		t.Fatalf("implausible stats: %+v", s)
	}
}

func TestRAMPropertyRandomOps(t *testing.T) {
	r := testRAM(t, func(c *Config) { c.Scheme = SchemeDynamic })
	model := map[uint64][]byte{}
	rnd := rng.New(11)
	for i := 0; i < 3000; i++ {
		idx := rnd.Uint64n(256) // hot region encourages merging
		if rnd.Bool() {
			data := make([]byte, 8)
			for j := range data {
				data[j] = byte(rnd.Uint64())
			}
			model[idx] = data
			if err := r.Write(idx, data); err != nil {
				t.Fatal(err)
			}
		} else {
			got, err := r.Read(idx)
			if err != nil {
				t.Fatal(err)
			}
			want := model[idx]
			if want == nil {
				continue
			}
			if !bytes.Equal(got[:8], want) {
				t.Fatalf("op %d: block %d = %x, want %x", i, idx, got[:8], want)
			}
		}
	}
	if r.Stats().Merges == 0 {
		t.Fatal("hot workload never merged super blocks")
	}
}

func TestRAMFlush(t *testing.T) {
	r := testRAM(t, nil)
	if err := r.Write(3, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if r.Stats().Writes != 1 {
		t.Fatalf("stats %+v", r.Stats())
	}
	// The sealed store now holds the block; a fresh read (after cache
	// churn) must decrypt it correctly.
	for i := uint64(100); i < 400; i++ {
		if _, err := r.Read(i); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 {
		t.Fatalf("flushed block read back %d", got[0])
	}
}

func TestRAMBounds(t *testing.T) {
	r := testRAM(t, nil)
	if _, err := r.Read(r.Blocks()); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if err := r.Write(r.Blocks(), nil); err == nil {
		t.Fatal("out-of-range write accepted")
	}
	if err := r.Write(0, make([]byte, r.BlockBytes()+1)); err == nil {
		t.Fatal("oversized write accepted")
	}
}

func TestRAMReadWriteAt(t *testing.T) {
	r := testRAM(t, nil)
	msg := []byte("spans multiple blocks when written at an odd offset .....")
	off := int64(r.BlockBytes()*5 - 10)
	n, err := r.WriteAt(msg, off)
	if err != nil || n != len(msg) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	got := make([]byte, len(msg))
	if _, err := r.ReadAt(got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("ReadAt = %q", got)
	}
	if _, err := r.ReadAt(make([]byte, 1), -1); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := r.ReadAt(make([]byte, 1), int64(r.Blocks())*int64(r.BlockBytes())); err == nil {
		t.Fatal("offset beyond capacity accepted")
	}
}

func TestRAMQuickRoundTrip(t *testing.T) {
	r := testRAM(t, nil)
	f := func(idx uint16, payload []byte) bool {
		block := uint64(idx) % r.Blocks()
		if len(payload) > r.BlockBytes() {
			payload = payload[:r.BlockBytes()]
		}
		if err := r.Write(block, payload); err != nil {
			return false
		}
		got, err := r.Read(block)
		if err != nil {
			return false
		}
		return bytes.Equal(got[:len(payload)], payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Blocks = 1
	if _, err := New(cfg); err == nil {
		t.Fatal("tiny capacity accepted")
	}
	cfg = DefaultConfig()
	cfg.CacheBlocks = 1
	if _, err := New(cfg); err == nil {
		t.Fatal("tiny cache accepted")
	}
	cfg = DefaultConfig()
	cfg.Scheme = Scheme(42)
	if _, err := New(cfg); err == nil {
		t.Fatal("bogus scheme accepted")
	}
	cfg = DefaultConfig()
	cfg.Key = []byte("bad")
	if _, err := New(cfg); err == nil {
		t.Fatal("bad key accepted")
	}
}

// TestOversizedCapacityRefused: a capacity whose tree would be deeper than
// the 31 levels a position-map entry can label is an error from every
// constructor — reported from arithmetic on the configuration, where sizing
// the position map for it used to panic (2^60 blocks: makeslice) or kill the
// process (2^45: out of memory), in NewSimulator's case only at Run.
func TestOversizedCapacityRefused(t *testing.T) {
	for _, blocks := range []uint64{1 << 45, 1 << 60, ^uint64(0)} {
		cfg := DefaultConfig()
		cfg.Blocks = blocks
		if _, err := New(cfg); err == nil {
			t.Errorf("New accepted %d blocks", blocks)
		}
		cfg.Partitions = 2
		if s, err := NewSharded(cfg, ShardedOptions{}); err == nil {
			s.Close()
			t.Errorf("NewSharded accepted %d blocks", blocks)
		}
		if _, err := NewSimulator(SimConfig{ORAMBlocks: blocks}); err == nil {
			t.Errorf("NewSimulator accepted %d blocks", blocks)
		}
	}
}

// TestUnsurvivableGeometryRefused: field values that would reach an
// allocation (a bank count, a bucket size, a block size — the process dies
// in makeslice, which no recover catches), an overflow, or a
// float-to-integer conversion with no defined result (NaN and ±Inf
// bandwidth pass a `<= 0` test) are errors naming the field from every
// constructor.
func TestUnsurvivableGeometryRefused(t *testing.T) {
	refused := func(ctor, field string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: got %v, want an error naming %s", ctor, err, field)
		}
	}
	frontends := func(field string, cfg Config) {
		t.Helper()
		cfg.Blocks, cfg.Partitions = 64, 2
		_, err := New(cfg)
		refused("New", field, err)
		s, err := NewSharded(cfg, ShardedOptions{})
		if err == nil {
			s.Close()
		}
		refused("NewSharded", field, err)
	}
	for _, tc := range []struct {
		field string
		d     DRAMConfig
	}{
		{"Banks", DRAMConfig{Banks: 1 << 30}},
		{"Banks", DRAMConfig{Channels: 64, Banks: 1 << 12}},
		{"RowBytes", DRAMConfig{Channels: 4, RowBytes: 1 << 62, StripeBytes: 1 << 62}}, // the stripe period wrapped to 0: a division by it
		{"BandwidthGBps", DRAMConfig{BandwidthGBps: math.NaN()}},
		{"BandwidthGBps", DRAMConfig{BandwidthGBps: math.Inf(1)}},
		{"BandwidthGBps", DRAMConfig{BandwidthGBps: math.Inf(-1)}},
		{"BandwidthGBps", DRAMConfig{BandwidthGBps: 1e300}},
	} {
		tc.d.Model = DRAMBanked
		frontends(tc.field, Config{DRAM: &tc.d})
		_, err := NewSimulator(SimConfig{ORAMBlocks: 64, DRAM: &tc.d})
		refused("NewSimulator", tc.field, err)
	}
	frontends("Z", Config{Z: 1 << 30})
	_, err := NewSimulator(SimConfig{ORAMBlocks: 64, Z: 1 << 30})
	refused("NewSimulator", "Z", err)
	// (The simulator's block size is its cache line, and the cache geometry
	// has always refused a line the LLC cannot hold.)
	frontends("BlockBytes", Config{BlockBytes: 1 << 40})
	// The simulator's own channel, under both memories.
	for _, bw := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		for _, m := range []Memory{MemoryORAM, MemoryDRAM} {
			_, err := NewSimulator(SimConfig{Memory: m, ORAMBlocks: 64, BandwidthGBps: bw})
			refused(fmt.Sprintf("NewSimulator(Memory %d, BandwidthGBps %v)", m, bw), "BandwidthGBps", err)
		}
	}
}

func TestSchemeString(t *testing.T) {
	if SchemeNone.String() != "none" || SchemeStatic.String() != "static" ||
		SchemeDynamic.String() != "dynamic" {
		t.Fatal("Scheme.String mismatch")
	}
}

func TestStatsPrefetchMissRate(t *testing.T) {
	s := Stats{PrefetchHits: 3, PrefetchUnused: 1}
	if got := s.PrefetchMissRate(); got != 0.25 {
		t.Fatalf("miss rate %v", got)
	}
	if (Stats{}).PrefetchMissRate() != 0 {
		t.Fatal("empty miss rate nonzero")
	}
}

func TestRAMSchemesAllWork(t *testing.T) {
	for _, scheme := range []Scheme{SchemeNone, SchemeStatic, SchemeDynamic} {
		r := testRAM(t, func(c *Config) { c.Scheme = scheme })
		for i := uint64(0); i < 64; i++ {
			if err := r.Write(i, []byte{byte(i)}); err != nil {
				t.Fatalf("%v: %v", scheme, err)
			}
		}
		for i := uint64(0); i < 64; i++ {
			got, err := r.Read(i)
			if err != nil || got[0] != byte(i) {
				t.Fatalf("%v: block %d = %v, %v", scheme, i, got[0], err)
			}
		}
	}
}

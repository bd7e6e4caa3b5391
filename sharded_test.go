package proram

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func testSharded(t *testing.T, mutate func(*Config)) *ShardedRAM {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Blocks = 1 << 12
	cfg.CacheBlocks = 512
	cfg.Partitions = 8
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewSharded(cfg, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardedConcurrentSmoke is the public-API concurrency smoke test the
// CI race job leans on: eight goroutines hammer a Partitions=8 ShardedRAM
// through every public entry point (Read, Write, ReadAt, WriteAt), each on
// its own address stripe, and read their own writes back. Under -race this
// also proves the confinement story end to end from the public surface.
func TestShardedConcurrentSmoke(t *testing.T) {
	s := testSharded(t, nil)
	const clients, span = 8, 16
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			base := uint64(c) * span
			for i := uint64(0); i < span; i++ {
				want := []byte(fmt.Sprintf("client%d-block%d", c, i))
				if err := s.Write(base+i, want); err != nil {
					t.Errorf("client %d write: %v", c, err)
					return
				}
				got, err := s.Read(base + i)
				if err != nil {
					t.Errorf("client %d read: %v", c, err)
					return
				}
				if !bytes.Equal(got[:len(want)], want) {
					t.Errorf("client %d block %d: got %q, want %q", c, base+i, got[:len(want)], want)
					return
				}
			}
			// Byte-granular adapters, offset into a stripe far from the
			// block writes above so clients stay disjoint.
			off := int64(uint64(s.BlockBytes()) * (2048 + uint64(c)*span))
			msg := []byte(fmt.Sprintf("spanning-%d", c))
			if _, err := s.WriteAt(msg, off+int64(s.BlockBytes())-4); err != nil {
				t.Errorf("client %d WriteAt: %v", c, err)
				return
			}
			buf := make([]byte, len(msg))
			if _, err := s.ReadAt(buf, off+int64(s.BlockBytes())-4); err != nil {
				t.Errorf("client %d ReadAt: %v", c, err)
				return
			}
			if !bytes.Equal(buf, msg) {
				t.Errorf("client %d ReadAt got %q, want %q", c, buf, msg)
			}
		}(c)
	}
	wg.Wait()

	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Reads == 0 || st.Writes == 0 {
		t.Fatalf("stats recorded no traffic: %+v", st)
	}
	sch := s.SchedStats()
	if sch.Partitions != 8 {
		t.Fatalf("SchedStats.Partitions = %d, want 8", sch.Partitions)
	}
	if sch.Rounds == 0 || sch.RealAccesses == 0 {
		t.Fatalf("scheduler ran no rounds: %+v", sch)
	}
	if sch.RealAccesses+sch.PadAccesses < sch.Rounds*uint64(sch.RoundSlots) {
		t.Fatalf("round padding contract violated: %d real + %d pad over %d rounds of %d slots",
			sch.RealAccesses, sch.PadAccesses, sch.Rounds, sch.RoundSlots)
	}
	if sch.RequestErrors != 0 {
		t.Fatalf("scheduler recorded %d request errors", sch.RequestErrors)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(0); err == nil {
		t.Fatal("Read after Close succeeded")
	}
}

// TestShardedMatchesUnifiedContents: the same write set read back through
// a unified RAM and a sharded one yields the same data — partitioning
// changes the access pattern, never the contents.
func TestShardedMatchesUnifiedContents(t *testing.T) {
	r := testRAM(t, nil)
	s := testSharded(t, nil)
	defer s.Close()
	for i := uint64(0); i < 96; i++ {
		data := []byte{byte(i), byte(i >> 3), 0xAB}
		if err := r.Write(i*31%r.Blocks(), data); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(i*31%s.Blocks(), data); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 96; i++ {
		a, err := r.Read(i * 31 % r.Blocks())
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Read(i * 31 % s.Blocks())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("block %d: unified %x, sharded %x", i*31%r.Blocks(), a[:8], b[:8])
		}
	}
}

// TestRoundSlotsBounded: a round answers nothing before its last slot, so
// RoundSlots math.MaxInt used to be accepted and the first Read never
// returned. Both entry points now refuse it by arithmetic, naming the
// field, and still take a round far larger than the default.
func TestRoundSlotsBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Blocks = 1 << 10
	cfg.Partitions = 2
	w, err := Synthetic(SyntheticConfig{Ops: 50, WorkingSetBytes: 1 << 14, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, slots := range []int{math.MaxInt, 1<<12 + 1} {
		cfg.RoundSlots = slots
		s, err := NewSharded(cfg, ShardedOptions{})
		if err == nil {
			s.Close()
			t.Fatalf("NewSharded accepted RoundSlots %d", slots)
		}
		if !strings.Contains(err.Error(), "RoundSlots") {
			t.Errorf("NewSharded error %q does not name RoundSlots", err)
		}
		if _, err := SimulateSharded(cfg, w, 2, ShardedOptions{}); err == nil || !strings.Contains(err.Error(), "RoundSlots") {
			t.Errorf("SimulateSharded with RoundSlots %d: error %v, want one naming RoundSlots", slots, err)
		}
	}
	cfg.RoundSlots = 1 << 12
	s, err := NewSharded(cfg, ShardedOptions{})
	if err != nil {
		t.Fatalf("RoundSlots %d refused: %v", cfg.RoundSlots, err)
	}
	defer s.Close()
	if _, err := s.Read(0); err != nil {
		t.Fatal(err)
	}
}

// TestCacheBelowSuperBlockRefused: a client cache smaller than one super
// block evicts the demand line under its own prefetched siblings before
// the write reaches it, so Write(0, x) then Read(0) used to return zeros.
// Both constructors now refuse the configuration, and the smallest cache
// that holds a super block round-trips the bytes.
func TestCacheBelowSuperBlockRefused(t *testing.T) {
	open := map[string]func(Config) (blockDevice, error){
		"RAM": func(c Config) (blockDevice, error) {
			r, err := New(c)
			if err != nil {
				return nil, err
			}
			return r, nil
		},
		"ShardedRAM": func(c Config) (blockDevice, error) {
			s, err := NewSharded(c, ShardedOptions{})
			if err != nil {
				return nil, err
			}
			t.Cleanup(func() { s.Close() })
			return s, nil
		},
	}
	for name, newDev := range open {
		cfg := DefaultConfig()
		cfg.Blocks = 1 << 12
		cfg.Scheme = SchemeStatic
		cfg.MaxSuperBlock = 32
		cfg.Partitions = 1
		cfg.CacheBlocks = 16
		if _, err := newDev(cfg); err == nil {
			t.Errorf("%s: CacheBlocks 16 under MaxSuperBlock 32 accepted", name)
		}
		cfg.CacheBlocks = 32
		d, err := newDev(cfg)
		if err != nil {
			t.Fatalf("%s: CacheBlocks 32 refused: %v", name, err)
		}
		msg := []byte("kept")
		if err := d.Write(0, msg); err != nil {
			t.Fatal(err)
		}
		got, err := d.Read(0)
		if err != nil || !bytes.Equal(got[:len(msg)], msg) {
			t.Fatalf("%s: wrote %q, read %q, %v", name, msg, got[:len(msg)], err)
		}
	}
}

// TestShardedCloseTwice: the usual deferred Close after an explicit one
// must not append a second metrics document or audit report to the
// configured writers, and returns what the first call returned.
func TestShardedCloseTwice(t *testing.T) {
	var metrics, report bytes.Buffer
	cfg := DefaultConfig()
	cfg.Blocks = 1 << 12
	cfg.CacheBlocks = 512
	cfg.Partitions = 2
	s, err := NewSharded(cfg, ShardedOptions{
		Obs:   &ObsConfig{MetricsOut: &metrics},
		Audit: &AuditConfig{Out: &report, Leak: LeakDropDummies},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		if err := s.Write(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	first := s.Close()
	if first == nil {
		t.Fatal("leaky audited Close succeeded")
	}
	m, r := metrics.Len(), report.Len()
	if m == 0 || r == 0 {
		t.Fatalf("first Close wrote %d metrics bytes, %d report bytes", m, r)
	}
	if again := s.Close(); again != first {
		t.Fatalf("second Close returned %v, first returned %v", again, first)
	}
	if metrics.Len() != m || report.Len() != r {
		t.Fatalf("second Close wrote %d more metrics bytes, %d more report bytes",
			metrics.Len()-m, report.Len()-r)
	}
}

// TestSimulateShardedWritesObs: a sharded simulation honours
// ShardedOptions.Obs — the metrics dump and the trace are complete when it
// returns, and the dump's scheduler counters are the report's. It used to
// run without a recorder, so proram-sim -partitions wrote neither file.
func TestSimulateShardedWritesObs(t *testing.T) {
	var metrics, trace bytes.Buffer
	cfg := DefaultConfig()
	cfg.Blocks = 1 << 12
	cfg.CacheBlocks = 512
	cfg.Partitions = 4
	rep, err := SimulateSharded(cfg, YCSBWorkload(3000), 8, ShardedOptions{
		Obs: &ObsConfig{MetricsOut: &metrics, TraceOut: &trace, SampleEvery: 50_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Counters []struct {
			Name  string
			Value uint64
		}
	}
	if err := json.Unmarshal(metrics.Bytes(), &dump); err != nil {
		t.Fatalf("metrics dump: %v", err)
	}
	got := map[string]uint64{}
	for _, c := range dump.Counters {
		got[c.Name] = c.Value
	}
	if rep.Sched.Rounds == 0 || got["shard.rounds"] != rep.Sched.Rounds {
		t.Errorf("shard.rounds = %d, report says %d rounds", got["shard.rounds"], rep.Sched.Rounds)
	}
	if got["shard.requests_served"] != rep.Ops || got["shard.dummy_accesses"] != rep.Sched.PadAccesses {
		t.Errorf("served %d / padding %d, report says %d / %d",
			got["shard.requests_served"], got["shard.dummy_accesses"], rep.Ops, rep.Sched.PadAccesses)
	}
	var events []map[string]any
	if err := json.Unmarshal(trace.Bytes(), &events); err != nil || len(events) == 0 {
		t.Fatalf("trace is not a closed, non-empty JSON array: %d events, %v", len(events), err)
	}
}

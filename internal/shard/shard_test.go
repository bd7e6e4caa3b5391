package shard

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"proram/internal/dram/banked"
	"proram/internal/oram"
	"proram/internal/rng"
	"proram/internal/superblock"
)

// testKey is a fixed AES-128 key; tests never exercise key derivation.
var testKey = []byte("0123456789abcdef")

// testConfig is a small sharded frontend: 4096 blocks, dynamic prefetcher
// with 2-block super blocks, default RoundSlots (2).
func testConfig(parts int) Config {
	o := oram.DefaultConfig()
	o.OnChipEntries = 256
	o.PLBBlocks = 32
	sb := superblock.DefaultConfig()
	sb.MaxSize = 2
	o.Super = sb
	return Config{
		Partitions:    parts,
		Blocks:        1 << 12,
		BlockBytes:    64,
		CacheBlocks:   64 * parts,
		MaxSuperBlock: sb.MaxSize,
		Key:           testKey,
		Seed:          7,
		ORAM:          o,
	}
}

// runLive drives clients concurrent goroutines of ops requests each
// against a recording frontend and returns the arrival log and the live
// access log.
func runLive(t *testing.T, cfg Config, clients, ops int) ([]Arrival, *Log) {
	t.Helper()
	cfg.RecordArrivals = true
	cfg.RecordAccesses = true
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(uint64(1000 + c))
			for i := 0; i < ops; i++ {
				idx := r.Uint64n(cfg.Blocks / 4) // shared hot range: collisions and coalescing
				if r.Bool() {
					if err := f.Write(idx, []byte{byte(c), byte(i)}); err != nil {
						t.Errorf("client %d write: %v", c, err)
						return
					}
				} else {
					if _, err := f.Read(idx); err != nil {
						t.Errorf("client %d read: %v", c, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	arrivals := f.Arrivals()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return arrivals, f.AccessLog()
}

// TestReplayByteIdentity is the acceptance-criteria test: with 8
// partitions and 8 concurrent clients, the live global access sequence and
// two independent replays of its arrival log are byte-for-byte identical.
func TestReplayByteIdentity(t *testing.T) {
	cfg := testConfig(8)
	arrivals, liveLog := runLive(t, cfg, 8, 40)
	if len(arrivals) != 8*40 {
		t.Fatalf("recorded %d arrivals, want %d", len(arrivals), 8*40)
	}

	log1, stats1, err := Replay(cfg, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	log2, stats2, err := Replay(cfg, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := log1.Bytes(), log2.Bytes()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("two replays of the same arrival log diverge: %d vs %d bytes", len(b1), len(b2))
	}
	if !bytes.Equal(liveLog.Bytes(), b1) {
		t.Fatalf("live run and replay diverge: live %d bytes (%d paths), replay %d bytes (%d paths)",
			len(liveLog.Bytes()), len(liveLog.Paths), len(b1), len(log1.Paths))
	}
	if len(log1.Paths) == 0 || len(log1.Shapes) == 0 {
		t.Fatal("replay recorded no accesses")
	}
	if err := stats1.Validate(); err != nil {
		t.Fatalf("replay stats: %v", err)
	}
	if stats1.Cycles != stats2.Cycles || stats1.RealAccesses != stats2.RealAccesses {
		t.Fatalf("replay stats diverge: %+v vs %+v", stats1, stats2)
	}
}

// TestReplayByteIdentityEdgePartitions backs the //proram:detround
// justification on Frontend.collect at the partition counts where the
// round barrier degenerates: a single partition (one receive per round,
// nothing to reorder) and non-power-of-two counts whose seeded
// partition maps distribute unevenly. Live run and two independent
// replays must stay byte-identical in every configuration.
func TestReplayByteIdentityEdgePartitions(t *testing.T) {
	for _, parts := range []int{1, 3, 5} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			cfg := testConfig(parts)
			arrivals, liveLog := runLive(t, cfg, 4, 20)
			log1, stats1, err := Replay(cfg, arrivals)
			if err != nil {
				t.Fatal(err)
			}
			log2, stats2, err := Replay(cfg, arrivals)
			if err != nil {
				t.Fatal(err)
			}
			b1, b2 := log1.Bytes(), log2.Bytes()
			if !bytes.Equal(b1, b2) {
				t.Fatalf("two replays diverge at %d partitions: %d vs %d bytes", parts, len(b1), len(b2))
			}
			if !bytes.Equal(liveLog.Bytes(), b1) {
				t.Fatalf("live run and replay diverge at %d partitions: live %d paths, replay %d paths",
					parts, len(liveLog.Paths), len(log1.Paths))
			}
			if len(log1.Paths) == 0 || len(log1.Shapes) == 0 {
				t.Fatal("replay recorded no accesses")
			}
			if err := stats1.Validate(); err != nil {
				t.Fatalf("replay stats: %v", err)
			}
			if stats1.Cycles != stats2.Cycles || stats1.RealAccesses != stats2.RealAccesses {
				t.Fatalf("replay stats diverge: %+v vs %+v", stats1, stats2)
			}
		})
	}
}

// skewedArrivals builds an arrival log whose every request routes to one
// partition (via the same seeded map the frontend will use).
func skewedArrivals(t *testing.T, cfg Config, n int) []Arrival {
	t.Helper()
	norm, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	pmap, err := NewPartitionMap(norm.Partitions, norm.Groups, mix(norm.Seed, 0x726f757465))
	if err != nil {
		t.Fatal(err)
	}
	target := pmap.Lookup(0)
	arrivals := make([]Arrival, 0, n)
	seq := uint64(0)
	for idx := uint64(0); len(arrivals) < n && idx < cfg.Blocks; idx++ {
		if pmap.Lookup(idx) != target {
			continue
		}
		arrivals = append(arrivals, Arrival{Seq: seq, Index: idx, Write: seq%3 == 0, Round: 0})
		seq++
	}
	if len(arrivals) < n {
		t.Fatalf("found only %d blocks on partition %d", len(arrivals), target)
	}
	return arrivals
}

// uniformArrivals spreads n requests over the whole address space.
func uniformArrivals(cfg Config, n int) []Arrival {
	r := rng.New(99)
	arrivals := make([]Arrival, n)
	for i := range arrivals {
		arrivals[i] = Arrival{Seq: uint64(i), Index: r.Uint64n(cfg.Blocks), Write: i%2 == 0, Round: 0}
	}
	return arrivals
}

// TestRoundPaddingUnderSkew asserts the obliviousness contract: every
// demand round issues exactly RoundSlots accesses on every partition,
// whether the workload hammers one partition or spreads uniformly.
func TestRoundPaddingUnderSkew(t *testing.T) {
	cfg := testConfig(4)
	for _, tc := range []struct {
		name     string
		arrivals []Arrival
	}{
		{"all-one-partition", skewedArrivals(t, cfg, 64)},
		{"uniform", uniformArrivals(cfg, 64)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log, stats, err := Replay(cfg, tc.arrivals)
			if err != nil {
				t.Fatal(err)
			}
			if err := stats.Validate(); err != nil {
				t.Fatal(err)
			}
			perRound := make(map[uint64]int)
			for _, s := range log.Shapes {
				if roundKind(s.Kind) != roundDemand {
					t.Fatalf("unexpected non-demand shape %+v in a flush-free run", s)
				}
				if got := s.Real + s.Dummy; got != stats.RoundSlots {
					t.Fatalf("round %d partition %d issued %d accesses, contract is %d",
						s.Round, s.Part, got, stats.RoundSlots)
				}
				perRound[s.Round]++
			}
			for r, n := range perRound {
				if n != cfg.Partitions {
					t.Fatalf("round %d has %d partition shapes, want %d", r, n, cfg.Partitions)
				}
			}
			if stats.Rounds == 0 {
				t.Fatal("no rounds ran")
			}
		})
	}
}

// TestCarryoverUnderSkew: a single-round burst at one partition exceeds
// its two-slot budget, so requests carry over across rounds yet all get
// served. The burst overflows the partition's cache, so dirty victims
// queue and drain in pad slots: every real access is either a miss's one
// read or a pad-slot write-back.
func TestCarryoverUnderSkew(t *testing.T) {
	cfg := testConfig(4)
	cfg.CacheBlocks = 16 * cfg.Partitions
	arrivals := skewedArrivals(t, cfg, 96)
	_, stats, err := Replay(cfg, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Carryovers == 0 {
		t.Fatal("expected carryovers with a two-slot round budget and a 96-request burst")
	}
	if got := stats.Reads + stats.Writes; got != 96 {
		t.Fatalf("served %d requests, want 96", got)
	}
	if stats.PadWritebacks == 0 {
		t.Fatal("the burst evicted no dirty line into a pad slot")
	}
	if misses := stats.Ops() - stats.CacheHits; stats.RealAccesses != misses+stats.PadWritebacks {
		t.Fatalf("%d real accesses, want %d misses + %d pad-slot write-backs", stats.RealAccesses, misses, stats.PadWritebacks)
	}
	if err := stats.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushEqualizesPartitions: flush writes every dirty line back and
// pads all partitions to the same flush length.
func TestFlushEqualizesPartitions(t *testing.T) {
	cfg := testConfig(4)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		if err := f.Write(i*17%cfg.Blocks, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	stats := f.Stats()
	if stats.FlushRounds != 1 {
		t.Fatalf("FlushRounds = %d, want 1", stats.FlushRounds)
	}
	if stats.FlushAccesses == 0 {
		t.Fatal("flush wrote nothing back despite dirty lines")
	}
	if err := stats.Validate(); err != nil {
		t.Fatal(err)
	}
	// Flushed data must survive: read back a sample.
	got, err := f.Read(17)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("block 17 reads %d after flush, want 1", got[0])
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentConsistency: goroutines own disjoint address stripes,
// write then read back their own data under full concurrency. Run with
// -race this also proves the confinement story.
func TestConcurrentConsistency(t *testing.T) {
	cfg := testConfig(8)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const clients, span = 8, 24
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			base := uint64(c) * span
			for i := uint64(0); i < span; i++ {
				want := []byte(fmt.Sprintf("c%d-%d", c, i))
				if err := f.Write(base+i, want); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				got, err := f.Read(base + i)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if !bytes.Equal(got[:len(want)], want) {
					t.Errorf("client %d block %d: got %q, want %q", c, base+i, got[:len(want)], want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(0); err != ErrClosed {
		t.Fatalf("read after close: %v, want ErrClosed", err)
	}
	if err := f.Stats().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLifecycleUnderLoad contends on Frontend.mu through every method
// that takes it, all at once: six clients write and read their own
// stripes while one goroutine polls Stats and Arrivals and another
// flushes three times, then Close lands on a second wave of readers still arriving.
// Every snapshot a reader can see must validate (a flush publishes only
// once its lengths are equalized), every request completes or fails
// with ErrClosed, and nothing hangs. Run with -race this is the
// executed-code check on the frontend's locking and goroutine lifetimes.
func TestLifecycleUnderLoad(t *testing.T) {
	cfg := testConfig(4)
	cfg.RecordArrivals = true
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const clients, span = 6, 32
	payload := func(c int, i uint64) []byte { return []byte(fmt.Sprintf("c%d-%d", c, i)) }
	readBack := func(c int, i uint64) error {
		got, err := f.Read(uint64(c)*span + i)
		if err != nil {
			return err
		}
		if want := payload(c, i); !bytes.Equal(got[:len(want)], want) {
			return fmt.Errorf("client %d block %d: got %q, want %q", c, i, got[:len(want)], want)
		}
		return nil
	}

	stop := make(chan struct{})
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := f.Stats().Validate(); err != nil {
				t.Errorf("snapshot mid-run: %v", err)
				return
			}
			f.Arrivals()
			runtime.Gosched() // poll, but do not starve a single-P run
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := uint64(0); i < span; i++ {
				if err := f.Write(uint64(c)*span+i, payload(c, i)); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if err := readBack(c, i); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Each flush follows a write of the flusher's own, so no flush
		// finds every partition clean (and the lengths trivially equal).
		for i := uint64(0); i < 3; i++ {
			if err := f.Write(clients*span+i, payload(clients, i)); err != nil {
				t.Errorf("write: %v", err)
			}
			if err := f.Flush(); err != nil {
				t.Errorf("flush %d: %v", i, err)
			}
		}
	}()
	wg.Wait()

	// Second wave: Close while readers are mid-stripe.
	served := make(chan struct{}, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := uint64(0); i < span; i++ {
				if err := readBack(c, i); err == ErrClosed {
					return
				} else if err != nil {
					t.Errorf("second wave: %v", err)
					return
				}
				if i == 0 {
					served <- struct{}{}
				}
			}
		}(c)
	}
	<-served
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(stop)
	watcher.Wait()

	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := f.Flush(); err != ErrClosed {
		t.Fatalf("flush after close: %v, want ErrClosed", err)
	}
	stats := f.Stats()
	if err := stats.Validate(); err != nil {
		t.Fatal(err)
	}
	if stats.FlushRounds != 3 {
		t.Fatalf("FlushRounds = %d, want 3", stats.FlushRounds)
	}
}

// TestStoreRoundtrip covers the shared seal-and-write-back helper: data
// written back comes back decrypted, absent blocks read as zeros, and the
// clock advances with every access.
func TestStoreRoundtrip(t *testing.T) {
	cfg := testConfig(1)
	f, err := build(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stopWorkers()
	st := f.parts[0].store
	if st.BlockBytes() != cfg.BlockBytes {
		t.Fatalf("BlockBytes = %d, want %d", st.BlockBytes(), cfg.BlockBytes)
	}
	zero, err := st.Load(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range zero {
		if b != 0 {
			t.Fatal("absent block did not read as zeros")
		}
	}
	data := make([]byte, cfg.BlockBytes)
	copy(data, "hello")
	if err := st.WriteBack(5, data); err != nil {
		t.Fatal(err)
	}
	if st.Now == 0 {
		t.Fatal("WriteBack did not advance the clock")
	}
	got, err := st.Load(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("Load did not return the written payload")
	}
	// Sealing is unauthenticated CTR (integrity is out of scope, as in the
	// paper), so bit flips pass; structural damage must not. 20 bytes still
	// hold a whole nonce, so they would open as a 4-byte "block".
	whole := st.Sealed[5]
	for _, damaged := range [][]byte{whole[:4], whole[:20], append(whole[:len(whole):len(whole)], 0)} {
		st.Sealed[5] = damaged
		if got, err := st.Load(5); err == nil {
			t.Fatalf("Load opened a %d-byte sealed block as %d plaintext bytes", len(damaged), len(got))
		}
	}
}

// TestBankedReplayByteIdentity is the shared-device acceptance test: with
// all partitions contending for one banked DRAM device, the live global
// access sequence (contended timings included) and two independent replays
// of its arrival log are byte-for-byte identical.
func TestBankedReplayByteIdentity(t *testing.T) {
	cfg := testConfig(4)
	bc := banked.DefaultConfig()
	cfg.Banked = &bc
	arrivals, liveLog := runLive(t, cfg, 4, 30)

	log1, stats1, err := Replay(cfg, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	log2, stats2, err := Replay(cfg, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := log1.Bytes(), log2.Bytes()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("two banked replays diverge: %d vs %d bytes", len(b1), len(b2))
	}
	if !bytes.Equal(liveLog.Bytes(), b1) {
		t.Fatalf("banked live run and replay diverge: live %d paths, replay %d paths",
			len(liveLog.Paths), len(log1.Paths))
	}
	if err := stats1.Validate(); err != nil {
		t.Fatalf("banked replay stats: %v", err)
	}
	if !stats1.BankedActive || stats1.Banked.Accesses == 0 {
		t.Fatalf("shared banked device saw no traffic: %+v", stats1.Banked)
	}
	if stats1.Cycles != stats2.Cycles {
		t.Fatalf("banked replay makespans diverge: %d vs %d", stats1.Cycles, stats2.Cycles)
	}
	// The contended schedule is what the log records: every path Start came
	// out of the arbiter, and per (round, partition) they are monotone.
	type lane struct {
		round uint64
		part  int
	}
	last := map[lane]uint64{}
	for _, p := range log1.Paths {
		k := lane{p.Round, p.Part}
		if prev, ok := last[k]; ok && p.Start < prev {
			t.Fatalf("round %d partition %d path starts not monotone: %d after %d",
				p.Round, p.Part, p.Start, prev)
		}
		last[k] = p.Start
	}
}

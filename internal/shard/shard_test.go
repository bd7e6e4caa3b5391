package shard

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"proram/internal/dram/banked"
	"proram/internal/obs/audit"
	"proram/internal/oram"
	"proram/internal/rng"
	"proram/internal/seal"
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
		Partitions:  parts,
		Blocks:      1 << 12,
		BlockBytes:  64,
		CacheBlocks: 64 * parts,
		Key:         testKey,
		Seed:        7,
		ORAM:        o,
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
	return arrivals, f.log
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

// TestReplayByteIdentityEdgePartitions holds Frontend.collect's
// reindexing of results into partition order at the partition counts
// where the round barrier degenerates: a single partition (one receive per
// round, nothing to reorder) and non-power-of-two counts whose seeded
// partition maps distribute unevenly. Live run and two independent
// replays must stay byte-identical in every configuration; a collect that
// kept completion order fails here.
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
	pmap, err := NewPartitionMap(norm.Partitions, 0, mix(norm.Seed, 0x726f757465))
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

// TestFlushRunsBehindQueuedRequests: Flush waits for the queues to drain,
// so a dispatcher that finds a queued write and a waiting flush at once
// runs the demand round first, and the flush writes back the line that
// round dirtied. The dispatcher starts only once both are in place, so
// every trial puts that choice to it; one that chose by scheduling (a
// select over two ready cases) would flush a clean cache in about half of
// the trials.
func TestFlushRunsBehindQueuedRequests(t *testing.T) {
	for trial := 0; trial < 16; trial++ {
		f, err := build(testConfig(2), false)
		if err != nil {
			t.Fatal(err)
		}
		req, err := f.enqueue(5, true, []byte{1})
		if err != nil {
			t.Fatal(err)
		}
		flushed := make(chan error, 1)
		f.flushWaiters = append(f.flushWaiters, flushed)
		go f.dispatch()
		if r := <-req.resp; r.err != nil {
			t.Fatal(r.err)
		}
		if err := <-flushed; err != nil {
			t.Fatal(err)
		}
		if got := f.Stats().FlushAccesses; got == 0 {
			t.Fatalf("trial %d: the flush ran ahead of the queued write and wrote nothing back", trial)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
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

// TestIdleWorkersPark: a worker spins for a bounded number of yields after
// each round, then must block in its work receive. After a burst of
// concurrent requests stops, every partition worker (P - 1 of them: the
// round driver runs partition 0 itself) reaches that receive (polled on
// goroutine dumps, not slept on), and Close still returns. A spin without
// its bound never parks and fails here.
func TestIdleWorkersPark(t *testing.T) {
	cfg := testConfig(4)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := uint64(0); i < 50; i++ {
				if err := f.Write(uint64(c)*64+i, []byte{byte(c)}); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for {
		parked, busy := workerStates()
		if parked >= cfg.Partitions-1 && busy == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers still busy after the burst: %d parked in their receive, %d not", parked, busy)
		}
		runtime.Gosched()
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// workerStates counts the live partition worker goroutines blocked in a
// channel receive (the work receive is run's only one) and those in any
// other state.
func workerStates() (parked, busy int) {
	for _, g := range goroutines() {
		if !bytes.Contains(g, []byte("proram/internal/shard.(*partition).run(")) {
			continue
		}
		if bytes.Contains(g, []byte(" [chan receive")) {
			parked++
		} else {
			busy++
		}
	}
	return parked, busy
}

// goroutines returns the dump of every live goroutine, one entry each.
func goroutines() [][]byte {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Split(buf[:n], []byte("\n\n"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestDriverRunsPartitionZero: the round driver runs partition 0's rounds
// on its own goroutine, so a frontend starts a worker goroutine for each
// other partition only: none at P = 1, three at P = 4, live and in replay
// mode. Stopping the frontend ends them all. The workers counted are the
// goroutines that shard.build started on this test's goroutine, started
// or still waiting to run, so other tests' frontends do not count.
func TestDriverRunsPartitionZero(t *testing.T) {
	self, _, _ := bytes.Cut(goroutines()[0], []byte(" ["))
	createdHere := []byte("\ncreated by proram/internal/shard.build in " + string(self) + "\n")
	workers := func() int {
		n := 0
		for _, g := range goroutines() {
			if bytes.Contains(g, createdHere) {
				n++
			}
		}
		return n
	}
	gone := func(what string) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); workers() > 0; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d worker goroutines still running after the frontend stopped", what, workers())
			}
		}
	}
	for _, parts := range []int{1, 4} {
		cfg := testConfig(parts)
		live, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 16; i++ {
			if err := live.Write(i, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := live.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := workers(); got != parts-1 {
			t.Errorf("live frontend with %d partitions runs %d worker goroutines, want %d", parts, got, parts-1)
		}
		if err := live.Close(); err != nil {
			t.Fatal(err)
		}
		gone(fmt.Sprintf("live, %d partitions", parts))

		replay, err := build(cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		if got := workers(); got != parts-1 {
			t.Errorf("replay frontend with %d partitions runs %d worker goroutines, want %d", parts, got, parts-1)
		}
		replay.stopWorkers()
		gone(fmt.Sprintf("replay, %d partitions", parts))
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
	// paper), so bit flips in the nonce or the ciphertext pass; structural
	// damage must not. 20 bytes still hold a whole IV, so they would open as
	// a 4-byte "block".
	whole := st.Sealed[5]
	for _, damaged := range [][]byte{whole[:4], whole[:20], append(whole[:len(whole):len(whole)], 0)} {
		st.Sealed[5] = damaged
		if got, err := st.Load(5); err == nil {
			t.Fatalf("Load opened a %d-byte sealed block as %d plaintext bytes", len(damaged), len(got))
		}
	}
	// An IV whose counter word is not the one Seal stores is corrupt too,
	// and leaves dst untouched.
	badIV := append([]byte(nil), whole...)
	badIV[seal.IVSize-1] ^= 1
	st.Sealed[5] = badIV
	dst := bytes.Repeat([]byte{0xee}, cfg.BlockBytes)
	if err := st.LoadInto(dst, 5); err == nil || !strings.Contains(err.Error(), "block 5 corrupt") {
		t.Fatalf("LoadInto of a block with a bad IV counter returned %v", err)
	}
	if !bytes.Equal(dst, bytes.Repeat([]byte{0xee}, cfg.BlockBytes)) {
		t.Fatal("LoadInto of a block with a bad IV counter wrote dst")
	}
}

// TestSteadyStateDoesNotAllocate measures the frontend's per-slot work on
// a warmed partition of a one-partition replay-mode frontend, which has
// no worker goroutine (the round driver owns partition 0): a pad slot's dummy access, the request router's
// partition lookup and the merge algorithm's client-cache probe allocate
// nothing. The dummies run before the cache holds any line, so no super
// block merges and Read has no prefetch slice to return. Then the client
// cache on its own, warmed and full: a miss, on a never-sealed block or a
// sealed one, a hit, a write and a victim's write-back allocate nothing.
func TestSteadyStateDoesNotAllocate(t *testing.T) {
	cfg := testConfig(1)
	f, err := build(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stopWorkers()
	p := f.parts[0]
	for i := 0; i < 20000; i++ {
		p.dummyAccess()
	}
	if avg := testing.AllocsPerRun(100, sixteen(p.dummyAccess)); avg != 0 {
		t.Errorf("16 dummyAccess calls allocate %.0f times", avg)
	}

	var index uint64
	lookup := func() {
		f.pmap.Lookup(index)
		index += 0x9e3779b97f4a7c15
	}
	if avg := testing.AllocsPerRun(100, sixteen(lookup)); avg != 0 {
		t.Errorf("16 PartitionMap.Lookup calls allocate %.0f times", avg)
	}

	for i := uint64(0); i < 32; i++ {
		if _, err := p.cache.Fetch(i); err != nil {
			t.Fatal(err)
		}
	}
	var probe uint64
	present := func() {
		p.cache.Present(probe % 64) // half resident, half not
		probe++
	}
	if avg := testing.AllocsPerRun(100, sixteen(present)); avg != 0 {
		t.Errorf("16 Cache.Present calls allocate %.0f times", avg)
	}

	// A warmed, full cache of 64 lines over 1024 blocks, no prefetch: a miss
	// on a never-sealed block, whose install evicts a clean line, a hit and
	// a write reuse lines in place.
	c := newTestCache(t, 64, noSuperBlocks, nil)
	var next uint64
	miss := func() {
		if _, err := c.Fetch(next % 1024); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for range 4096 {
		miss()
	}
	if avg := testing.AllocsPerRun(100, sixteen(miss)); avg != 0 {
		t.Errorf("16 Cache.Fetch misses allocate %.0f times", avg)
	}
	line, _ := c.Lookup((next - 1) % 1024)
	hit := func() { c.Lookup((next - 1) % 1024) }
	if avg := testing.AllocsPerRun(100, sixteen(hit)); avg != 0 {
		t.Errorf("16 Cache.Lookup hits allocate %.0f times", avg)
	}
	payload := []byte("payload")
	if avg := testing.AllocsPerRun(100, sixteen(func() { line.Set(payload) })); avg != 0 {
		t.Errorf("16 Line.Set calls allocate %.0f times", avg)
	}

	// Misses with a write over blocks 0..127, each evicting a dirty line
	// that Drain writes back over its block's previous ciphertext: the
	// Drain's seal allocates nothing.
	dirtyMiss := func() {
		line, err := c.Fetch(next % 128)
		if err != nil {
			t.Fatal(err)
		}
		line.Set(payload)
		next++
	}
	for range 256 {
		dirtyMiss()
		drainAll(t, c)
	}
	var drainAllocs uint64
	const drains = 200
	for range drains {
		dirtyMiss()
		drainAllocs += mallocs(func() {
			if wrote, err := c.Drain(); !wrote || err != nil {
				t.Fatalf("Drain = %v, %v; want one write-back", wrote, err)
			}
		})
	}
	if drainAllocs != 0 {
		t.Errorf("Cache.Drain allocates %.2f times per write-back", float64(drainAllocs)/drains)
	}

	// Blocks 0..127 are all sealed now, so a miss over them opens its
	// block: the clean evictions of a read-only pass, and the Open,
	// allocate nothing.
	openMiss := func() {
		if _, err := c.Fetch(next % 128); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for range 256 {
		openMiss()
		drainAll(t, c) // the dirty lines the first misses evict
	}
	if avg := testing.AllocsPerRun(100, sixteen(openMiss)); avg != 0 {
		t.Errorf("16 Cache.Fetch misses on sealed blocks allocate %.0f times", avg)
	}
}

// sixteen returns a function that calls f 16 times. AllocsPerRun divides
// a run's allocations by the run count and rounds down, so with one call
// per run an allocation made on every 16th call reads as 0; with 16 calls
// per run it reads as 1.
func sixteen(f func()) func() {
	return func() {
		for range 16 {
			f()
		}
	}
}

// mallocs counts the heap allocations f makes.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
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

// TestTraceHandedOffPerRound runs a live frontend that records traces —
// on a shared banked device, and under an auditor — for thousands of
// rounds. Each round's trace is handed to the driver and its buffer comes
// back, so after Close no controller holds any trace: a trace kept whole
// would grow by one event per path access for the frontend's lifetime.
func TestTraceHandedOffPerRound(t *testing.T) {
	const rounds = 2000
	bc := banked.DefaultConfig()
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"banked", func(c *Config) { c.Banked = &bc }},
		{"audited", func(c *Config) { c.Audit = audit.New(audit.Config{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(2)
			tc.set(&cfg)
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(5)
			for f.Stats().Rounds < rounds {
				if _, err := f.Read(r.Uint64n(cfg.Blocks)); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			for i, p := range f.parts {
				if n := len(p.store.Ctrl.Trace()); n != 0 {
					t.Errorf("partition %d controller holds %d trace events after %d rounds", i, n, f.Stats().Rounds)
				}
			}
		})
	}
}

// TestSeedSteersDummyDraws holds the seed rule for the padding draws:
// every partition's dummy generator derives from Config.Seed, so one seed
// gives each partition one stream and seeds 1 and 2 give two.
func TestSeedSteersDummyDraws(t *testing.T) {
	draws := func(seed uint64) [][]uint64 {
		cfg := testConfig(2)
		cfg.Seed = seed
		f, err := build(cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		defer f.stopWorkers()
		out := make([][]uint64, len(f.parts))
		for i, p := range f.parts {
			for range 32 {
				out[i] = append(out[i], p.dummyRnd.Uint64())
			}
		}
		return out
	}
	a, again, b := draws(1), draws(1), draws(2)
	for i := range a {
		if !slices.Equal(a[i], again[i]) {
			t.Errorf("partition %d: seed 1 gave two different dummy streams", i)
		}
		if slices.Equal(a[i], b[i]) {
			t.Errorf("partition %d: seeds 1 and 2 gave the same dummy stream", i)
		}
	}
}

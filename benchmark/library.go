package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"

	"proram"
	"proram/internal/rng"
)

// device is the block interface the library workloads drive. The public
// RAM and ShardedRAM implement it, and so do the traced mirrors.
type device interface {
	Read(index uint64) ([]byte, error)
	Write(index uint64, data []byte) error
	Flush() error
}

// instance is one built system under test plus what the benchmark needs
// around it.
type instance struct {
	dev device
	// stats returns the public counter view (proram.Stats).
	stats func() proram.Stats
	// close stops whatever goroutines the instance owns.
	close func() error
}

// noClose is the close of an instance that owns no goroutines.
func noClose() error { return nil }

// client is one closed-loop caller: it issues its next operation only
// after the previous one returned. Each client owns its op source, its
// payload bytes and its oracle, so concurrent clients share nothing but
// the device.
type client struct {
	src     *opSource
	payload *rng.Source
	// oracle holds the expected contents of the blocks this client
	// writes, indexed by block; nil means never written (all zero).
	oracle [][]byte
	bb     int

	ops   []op
	bytes []byte
	lat   []int32
	spans *tracer

	attempted, failed uint64
	firstFailure      string
}

func newClient(w workload, sz sizes, seed uint64, id int, windowOps int) *client {
	c := &client{
		src:     newOpSource(w, sz, seed, id),
		payload: rng.New(subSeed(seed, lanePayload+16*uint64(id))),
		oracle:  make([][]byte, sz.blocks),
		bb:      sz.blockBytes,
		ops:     make([]op, windowOps),
		lat:     make([]int32, windowOps),
	}
	if w.writeFraction > 0 {
		c.bytes = make([]byte, windowOps*sz.blockBytes)
	}
	return c
}

// prepare generates the next window's operations and payloads. It runs
// outside the timed part of the window.
func (c *client) prepare() {
	c.src.fill(c.ops)
	if c.bytes != nil {
		fillPayload(c.payload, c.bytes)
	}
}

// expect returns the oracle's contents of a block.
func (c *client) expect(index uint64) []byte {
	if b := c.oracle[index]; b != nil {
		return b
	}
	return zeroBlock[:c.bb]
}

var zeroBlock [4096]byte

// remember records a write in the oracle.
func (c *client) remember(index uint64, data []byte) {
	if c.oracle[index] == nil {
		c.oracle[index] = make([]byte, c.bb)
	}
	copy(c.oracle[index], data)
}

// corruptFirstRead flips one byte of the oracle's copy of the first block
// the prepared window reads before writing.
func (c *client) corruptFirstRead() {
	written := make(map[uint32]bool)
	for _, o := range c.ops {
		if o.write {
			written[o.index] = true
			continue
		}
		if !written[o.index] {
			bad := append([]byte(nil), c.expect(uint64(o.index))...)
			bad[0] ^= 1
			c.oracle[o.index] = bad
			return
		}
	}
}

// drive issues the prepared window against dev, checking every reply
// against the oracle and timing every operation.
func (c *client) drive(dev device) {
	prev := now()
	for i, o := range c.ops {
		idx := uint64(o.index)
		root := c.spans.beginOp(spanOp, uint32(c.attempted))
		var err error
		if o.write {
			p := c.bytes[i*c.bb : (i+1)*c.bb]
			if err = dev.Write(idx, p); err == nil {
				c.remember(idx, p)
			}
		} else {
			var got []byte
			got, err = dev.Read(idx)
			if err == nil && !bytes.Equal(got, c.expect(idx)) {
				err = fmt.Errorf("block %d differs from the oracle", idx)
			}
		}
		c.spans.end(root)
		c.attempted++
		if err != nil {
			c.failed++
			if c.firstFailure == "" {
				c.firstFailure = err.Error()
			}
		}
		t := now()
		d := t - prev
		if d > 1<<31-1 {
			d = 1<<31 - 1
		}
		c.lat[i] = int32(d)
		prev = t
	}
}

// windowStat is what one window measured: its wall time, the latency of
// every operation in it (for the simulator, of every chunk of memops) and,
// in an untraced run, the time of the reference kernel run after it.
type windowStat struct {
	ns  int64
	lat []int32
	ref int64
}

// libRun drives a library instance window by window.
type libRun struct {
	w       workload
	sz      sizes
	clients []*client
	inst    *instance
	// corrupt makes the next window flip one oracle byte first (tests
	// use it to prove that a wrong reply fails the run).
	corrupt bool
}

func newLibRun(w workload, sz sizes, seed uint64) *libRun {
	r := &libRun{w: w, sz: sz}
	per := sz.windowOps[w.name] / w.clients
	for id := 0; id < w.clients; id++ {
		r.clients = append(r.clients, newClient(w, sz, seed, id, per))
	}
	return r
}

func (r *libRun) opsPerWindow() int { return len(r.clients) * len(r.clients[0].ops) }

// window runs one window on every client and returns its statistics. The
// clients of one window start together and the window ends when the last
// of them is done, so a window is a clean unit of work.
func (r *libRun) window() windowStat {
	for _, c := range r.clients {
		c.prepare()
	}
	if r.corrupt {
		r.clients[0].corruptFirstRead()
		r.corrupt = false
	}
	t0 := now()
	if len(r.clients) == 1 {
		r.clients[0].drive(r.inst.dev)
	} else {
		var wg sync.WaitGroup
		for _, c := range r.clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				c.drive(r.inst.dev)
			}(c)
		}
		wg.Wait()
	}
	s := windowStat{ns: now() - t0, lat: make([]int32, 0, r.opsPerWindow())}
	for _, c := range r.clients {
		s.lat = append(s.lat, c.lat...)
	}
	return s
}

// timed runs the fixed windows, calls atFixed once they are done, and
// keeps measuring further windows until the deadline. It returns every
// window's statistics.
func (r *libRun) timed(ref *reference, deadline int64, atFixed func()) []windowStat {
	var ws []windowStat
	for n := 0; n < r.sz.windows || now() < deadline; n++ {
		s := r.window()
		s.ref = ref.run()
		ws = append(ws, s)
		if n+1 == r.sz.windows {
			atFixed()
		}
	}
	return ws
}

// totals sums the clients' accounting.
func (r *libRun) totals() (attempted, failed uint64, first string, hash uint64) {
	for _, c := range r.clients {
		attempted += c.attempted
		failed += c.failed
		if first == "" {
			first = c.firstFailure
		}
		hash = hash*fnvPrime ^ c.src.hash
	}
	return
}

// libConfig is the public configuration of the library workloads.
func libConfig(w workload, sz sizes, seed uint64) proram.Config {
	cfg := proram.DefaultConfig()
	cfg.Blocks = sz.blocks
	cfg.BlockBytes = sz.blockBytes
	cfg.CacheBlocks = sz.cacheBlocks
	cfg.Scheme = proram.SchemeDynamic
	cfg.MaxSuperBlock = 2
	cfg.Z = 3
	cfg.StashBlocks = 100
	cfg.Seed = seed
	cfg.Key = benchKey(seed)
	if w.kind == kindSharded {
		cfg.Partitions = 2
	}
	return cfg
}

// benchKey derives the AES key both the real frontends and the mirrors
// seal with.
func benchKey(seed uint64) []byte {
	key := make([]byte, 16)
	fillPayload(rng.New(subSeed(seed, laneKey)), key)
	return key
}

// populate is the unified-RAM set-up: write every block once, in seeded
// permuted order for the uniform workload (a sequential populate leaves
// every pair merged, and the timed phase would open with a long storm of
// breaks) and sequentially for the scan, then flush.
func populate(w workload, sz sizes, seed uint64, dev device, c *client) error {
	order := make([]int, sz.blocks)
	for i := range order {
		order[i] = i
	}
	if w.pattern == patUniform {
		order = rng.New(subSeed(seed, lanePopulate)).Perm(int(sz.blocks))
	}
	fill := rng.New(subSeed(seed, lanePopulate+1))
	buf := make([]byte, sz.blockBytes)
	for _, i := range order {
		fillPayload(fill, buf)
		if err := dev.Write(uint64(i), buf); err != nil {
			return err
		}
		c.remember(uint64(i), buf)
	}
	return dev.Flush()
}

// warmSharded is the sharded set-up: every client issues shardWarm
// operations of its own stream (so the hot blocks are placed and cached),
// then the frontend flushes. Populating all 2^16 blocks through padded
// rounds would take longer than the run itself.
func warmSharded(sz sizes, dev device, clients []*client) error {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			full, lat := c.ops, c.lat
			for left := sz.shardWarm; left > 0; left -= len(c.ops) {
				c.ops, c.lat = full, lat
				if left < len(full) {
					c.ops, c.lat = full[:left], lat[:left]
				}
				c.prepare()
				c.drive(dev)
			}
			c.ops, c.lat = full, lat
		}(c)
	}
	wg.Wait()
	return dev.Flush()
}

// setUp builds the instance at least setupRuns times, and up to three
// times as often while the builds together have taken less than
// setupSeconds (a cheap set-up is a noisy one), and keeps the last. build
// must return a fresh instance and fresh clients each time, so every build
// sees the same inputs.
func setUp(sz sizes, build func() (func() error, error)) (measurement, error) {
	var secs []float64
	var total float64
	var closePrev func() error
	for i := 0; i < sz.setupRuns || (i < 3*sz.setupRuns && total < sz.setupSeconds); i++ {
		if closePrev != nil {
			if err := closePrev(); err != nil {
				return measurement{}, err
			}
		}
		t0 := now()
		cl, err := build()
		if err != nil {
			return measurement{}, err
		}
		secs = append(secs, float64(now()-t0)/1e9)
		total += secs[i]
		closePrev = cl
	}
	return medianOf(secs), nil
}

// buildLibrary constructs the real public frontend for a library workload
// and runs its set-up phase.
func buildLibrary(w workload, sz sizes, seed uint64, opt proram.ShardedOptions) (*libRun, error) {
	r := newLibRun(w, sz, seed)
	cfg := libConfig(w, sz, seed)
	if w.kind == kindSharded {
		s, err := proram.NewSharded(cfg, opt)
		if err != nil {
			return nil, err
		}
		r.inst = &instance{dev: s, stats: s.Stats, close: s.Close}
		if err := warmSharded(sz, s, r.clients); err != nil {
			return nil, err
		}
		return r, nil
	}
	m, err := proram.New(cfg)
	if err != nil {
		return nil, err
	}
	r.inst = &instance{dev: m, stats: m.Stats, close: noClose}
	return r, populate(w, sz, seed, m, r.clients[0])
}

// memSnap is the allocator state at one point of a run.
type memSnap struct {
	mallocs, bytes uint64
	heapLive       uint64
}

func readMem(gc bool) memSnap {
	if gc {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, heapLive: ms.HeapAlloc}
}

// reportMem fills the allocation metrics from snapshots taken around the
// fixed windows (after is taken after a forced collection). The live heap
// is counted from the reference kernel's own, which runLibrary and runSim
// measured before anything else was built.
func reportMem(res *result, ref, before, after memSnap, ops uint64) {
	res.set("allocs_per_op", measurement{Value: ratio(after.mallocs-before.mallocs, ops), N: int(ops)})
	res.set("alloc_bytes_per_op", measurement{Value: ratio(after.bytes-before.bytes, ops), N: int(ops)})
	res.setValue("heap_live_mb", float64(after.heapLive-ref.heapLive)/(1<<20))
}

// runLibrary is the untraced run of a library workload through the public
// API: set-up three times, drive windows for the given time, check.
func runLibrary(w workload, sz sizes, o options) (*result, error) {
	res := newResult(w.name, o.seed, false)
	ref := newReference()
	refMem := readMem(true)
	var r *libRun
	setup, err := setUp(sz, func() (func() error, error) {
		var err error
		r, err = buildLibrary(w, sz, o.seed, proram.ShardedOptions{})
		if err != nil {
			return nil, err
		}
		return r.inst.close, nil
	})
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup)
	r.corrupt = o.corruptOracle

	before := readMem(false)
	base := r.inst.stats()
	var after memSnap
	var fixed proram.Stats
	ws := r.timed(ref, now()+int64(o.seconds*1e9), func() {
		fixed = r.inst.stats()
		after = readMem(true)
	})
	ops := uint64(sz.windows * r.opsPerWindow())
	reportWindows(res, ws, r.opsPerWindow(), 1)
	reportMem(res, refMem, before, after, ops)
	res.set("path_accesses_per_op", measurement{Value: ratio(fixed.PathAccesses-base.PathAccesses, ops), N: int(ops)})

	if err := r.inst.dev.Flush(); err != nil {
		res.fail("final flush: %v", err)
	}
	if err := r.inst.close(); err != nil {
		res.fail("close: %v", err)
	}
	if s, ok := r.inst.dev.(*proram.ShardedRAM); ok {
		if n := s.SchedStats().RequestErrors; n != 0 {
			res.fail("scheduler reported %d request errors", n)
		}
	}
	r.finish(res)
	return res, nil
}

// finish copies the clients' accounting into the result.
func (r *libRun) finish(res *result) {
	attempted, failed, first, hash := r.totals()
	res.Attempted += attempted
	res.StreamHash = hash
	if failed > 0 {
		res.Failed += failed - 1
		res.fail("%d of %d operations failed; first: %s", failed, attempted, first)
	}
}

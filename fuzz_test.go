package proram

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
	"time"

	"proram/internal/rng"
)

// The API fuzzers. Index safety on the access path is Go's run-time check;
// these are what drives the public API to those indexings: FuzzOps with
// arbitrary operation sequences against a byte-slice oracle, FuzzConfig
// with arbitrary configurations. Their seed corpora (testdata/fuzz/ and
// the f.Add calls) run as ordinary tests.

// fuzzDevice is the surface RAM and ShardedRAM share.
type fuzzDevice interface {
	blockDevice
	io.ReaderAt
	io.WriterAt
	Flush() error
	Blocks() uint64
	BlockBytes() int
}

// opsConfig decodes the four header bytes of a FuzzOps input: scheme,
// MaxSuperBlock 1/2/4, memory device, and a byte of geometry bits (cache
// at its minimum or not, capacity, block size).
func opsConfig(hdr [4]byte) Config {
	geom := hdr[3]
	cfg := Config{
		Blocks:        []uint64{48, 100, 256}[(geom>>1)%3],
		BlockBytes:    []int{16, 40}[(geom>>3)&1],
		Scheme:        Scheme(hdr[0] % 3),
		MaxSuperBlock: 1 << (hdr[1] % 3),
		CacheBlocks:   []int{16, 48}[geom&1],
		Seed:          uint64(hdr[0]) + 1,
	}
	cfg.DRAM = DRAMModel(hdr[2] % 3)
	return cfg
}

// runOps is the op-sequence differential: data is a header (opsConfig) and
// five bytes per operation — kind, a 16-bit position, a length, a payload
// salt. Positions and lengths reach past capacity and past the block size
// on purpose. After every step a RAM and a 3-partition ShardedRAM each
// either returned the oracle's bytes or failed exactly where the oracle
// says they must, and every controller beneath them holds its invariant.
func runOps(t *testing.T, data []byte) {
	var hdr [4]byte
	ops := data[copy(hdr[:], data):]
	cfg := opsConfig(hdr)
	ram, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	scfg := cfg
	scfg.Partitions = 3
	scfg.CacheBlocks = 3 * cfg.CacheBlocks
	sharded, err := NewSharded(scfg, ShardedOptions{})
	if err != nil {
		t.Fatalf("NewSharded(%+v): %v", scfg, err)
	}
	defer sharded.Close()
	closed := false // the sharded frontend; RAM has no Close
	var sent uint64 // requests the sharded frontend has admitted

	bb := cfg.BlockBytes
	capBytes := int64(cfg.Blocks) * int64(bb)
	oracle := make([]byte, capBytes)
	for step := 0; len(ops) >= 5 && step < 400; step, ops = step+1, ops[5:] {
		kind, pos, n, salt := ops[0]%32, int64(binary.LittleEndian.Uint16(ops[1:])), int(ops[3]), ops[4]
		index := uint64(pos) % (cfg.Blocks + cfg.Blocks/4)
		off := pos%(capBytes*5/4+8) - 8
		payload := func(n int) []byte {
			p := make([]byte, n)
			for i := range p {
				p[i] = salt + byte(step) + byte(i)*7
			}
			return p
		}
		for i, d := range []fuzzDevice{ram, sharded} {
			onSharded := i == 1
			down := closed && onSharded
			var what string
			var err error
			var wantErr bool
			var reqs uint64 // block requests the step admits
			switch {
			case kind < 10:
				what = fmt.Sprintf("Read(%d)", index)
				var got []byte
				got, err = d.Read(index)
				wantErr = index >= cfg.Blocks || down
				if !wantErr {
					reqs = 1
				}
				if want := oracle[(index%cfg.Blocks)*uint64(bb):][:bb]; err == nil && !bytes.Equal(got, want) {
					t.Fatalf("step %d: %T %s = %x, oracle %x", step, d, what, got, want)
				}
			case kind < 20:
				p := payload(n % (bb + 3))
				what = fmt.Sprintf("Write(%d, %d bytes)", index, len(p))
				err = d.Write(index, p)
				wantErr = index >= cfg.Blocks || len(p) > bb || down
				if !wantErr {
					reqs = 1
				}
			case kind < 30:
				p := payload(n % (3*bb + 2))
				// The oracle's count: what fits below capacity, and nothing
				// at a negative offset or on a closed frontend.
				want := 0
				if off >= 0 && !down {
					want = int(min(int64(len(p)), max(0, capBytes-off)))
				}
				wantErr = off < 0 || want < len(p)
				if want > 0 { // a Read per block moved, and a WriteAt's Write
					reqs = uint64((off+int64(want)-1)/int64(bb) - off/int64(bb) + 1)
					if kind >= 25 {
						reqs *= 2
					}
				}
				var got int
				if kind < 25 {
					what = fmt.Sprintf("ReadAt(%d bytes, %d)", len(p), off)
					got, err = d.ReadAt(p, off)
					if got == want && got > 0 && !bytes.Equal(p[:got], oracle[off:][:got]) {
						t.Fatalf("step %d: %T %s = %x, oracle %x", step, d, what, p[:got], oracle[off:][:got])
					}
				} else {
					what = fmt.Sprintf("WriteAt(%d bytes, %d)", len(p), off)
					got, err = d.WriteAt(p, off)
				}
				if got != want {
					t.Fatalf("step %d: %T %s moved %d bytes (%v), oracle %d", step, d, what, got, err, want)
				}
				// io.ReaderAt: a read the end of the device cuts short
				// says io.EOF; a negative offset is an error of its own.
				if kind < 25 && !down && (err == io.EOF) != (off >= 0 && want < len(p)) {
					t.Fatalf("step %d: %T %s returned %v; io.EOF is for a read cut short by capacity", step, d, what, err)
				}
			case kind == 30:
				what = "Flush()"
				err = d.Flush()
				wantErr = down
			default:
				if !onSharded {
					continue
				}
				what = "Close()" // twice is fine
				err = sharded.Close()
				closed = true
			}
			if (err != nil) != wantErr {
				t.Fatalf("step %d: %T %s returned %v, oracle expects an error: %v", step, d, what, err, wantErr)
			}
			if onSharded {
				sent += reqs
				err = settleSharded(sharded, sent)
			} else {
				err = settleRAM(ram)
			}
			if err != nil {
				t.Fatalf("step %d: %T after %s: %v", step, d, what, err)
			}
		}
		// The oracle takes the step last, so both systems were compared
		// with the state before it. A closed frontend misses the writes
		// that follow, but from then on it is only asked to fail.
		switch {
		case kind >= 10 && kind < 20:
			if p := payload(n % (bb + 3)); index < cfg.Blocks && len(p) <= bb {
				block := oracle[index*uint64(bb):][:bb]
				clear(block[copy(block, p):])
			}
		case kind >= 25 && kind < 30:
			if off >= 0 && off < capBytes {
				copy(oracle[off:], payload(n%(3*bb+2)))
			}
		}
	}
}

func settleRAM(r *RAM) error {
	if err := r.store.Ctrl.Stats().Validate(); err != nil {
		return err
	}
	return r.store.Ctrl.CheckInvariant()
}

// settleSharded waits until the scheduler's snapshot accounts for exactly
// the admitted requests the test counted — the round that answered the
// last one has then committed and, with this one client, every worker is
// idle — and checks the accounting identities and every partition's ORAM
// invariant. A count off in either direction fails at the deadline.
func settleSharded(s *ShardedRAM, admitted uint64) error {
	deadline := time.Now().Add(10 * time.Second)
	st := s.f.Stats()
	for st.Ops()+st.RequestErrors != admitted {
		if time.Now().After(deadline) {
			return fmt.Errorf("snapshot accounts for %d of %d admitted requests", st.Ops()+st.RequestErrors, admitted)
		}
		runtime.Gosched()
		st = s.f.Stats()
	}
	if err := st.Validate(); err != nil {
		return err
	}
	for i, p := range st.Partitions {
		if err := p.ORAM.Validate(); err != nil {
			return fmt.Errorf("partition %d: %w", i, err)
		}
	}
	return s.f.CheckInvariant()
}

// FuzzOps runs runOps over fuzzer-chosen sequences; the corpus under
// testdata/fuzz/FuzzOps covers each scheme, MaxSuperBlock 1/2/4, both
// banked layouts and the minimum cache.
func FuzzOps(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(runOps)
}

// fuzzBytes deals a fuzz input out as configuration values; an exhausted
// input deals zeros, which are the defaults.
type fuzzBytes struct{ b []byte }

func (r *fuzzBytes) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// raw is the next eight bytes, little-endian.
func (r *fuzzBytes) raw() uint64 {
	var v [8]byte
	r.b = r.b[copy(v[:], r.b):]
	return binary.LittleEndian.Uint64(v[:])
}

// int is one byte for the small values configurations are made of, and
// after a byte of 0xF0 or more the next eight bytes, raw.
func (r *fuzzBytes) int() int {
	if v := r.byte(); v < 0xF0 {
		return int(v)
	}
	return int(r.raw())
}

// size is an int kept within ±limit: the fields that are legitimately
// large, where a valid value must stay cheap to build and run.
func (r *fuzzBytes) size(limit int) int { return r.int() % (limit + 1) }

func (r *fuzzBytes) float() float64 { return math.Float64frombits(r.raw()) }

// runConfig builds a Config and a SimConfig out of data — sizes clamped,
// everything else raw — and demands that each constructor either refuses
// it or returns a system that survives 200 mixed operations and a Flush
// (one short workload, for the simulator). Errors are fine; panics and
// process deaths are what it is looking for.
func runConfig(_ *testing.T, data []byte) {
	r := &fuzzBytes{data}
	cfg := Config{
		Blocks:        uint64(r.size(1024)),
		BlockBytes:    r.int(),
		Scheme:        Scheme(r.int()),
		MaxSuperBlock: r.int(),
		CacheBlocks:   r.size(256),
		Z:             r.int(),
		StashBlocks:   r.int(),
		Seed:          r.raw(),
		Partitions:    r.int(),
		RoundSlots:    r.int(),
		DRAM:          DRAMModel(r.byte()),
	}
	if n := r.byte() % 4; n > 0 {
		cfg.Key = make([]byte, []int{0, 16, 32, 5}[n])
	}
	if ram, err := New(cfg); err == nil {
		mixedOps(ram, cfg.Seed)
	}
	if s, err := NewSharded(cfg, ShardedOptions{}); err == nil {
		mixedOps(s, cfg.Seed)
		s.Close()
	}

	sc := SimConfig{
		Memory:           Memory(r.int()),
		Scheme:           cfg.Scheme,
		MaxSuperBlock:    cfg.MaxSuperBlock,
		StreamPrefetcher: r.byte()&1 != 0,
		ORAMBlocks:       2 + uint64(r.size(4096)), // never 0: the default is the paper's 1.5M blocks
		Z:                cfg.Z,
		StashBlocks:      cfg.StashBlocks,
		DRAM:             cfg.DRAM,
		Periodic:         r.byte()&1 != 0,
		Oint:             r.raw(),
		WarmupOps:        r.raw(),
		Seed:             cfg.Seed,
	}
	sim, err := NewSimulator(sc)
	if err != nil {
		return
	}
	w, err := Synthetic(SyntheticConfig{
		Ops:              40 + uint64(r.size(400)),
		WorkingSetBytes:  4096 + uint64(r.size(1<<18)),
		LocalityFraction: r.float(),
		WriteFraction:    r.float(),
		Seed:             cfg.Seed,
	})
	if err == nil {
		sim.Run(w)
	}
}

// mixedOps drives 200 seeded operations and a Flush through d, a fifth of
// them past capacity. Their errors are not its business.
func mixedOps(d fuzzDevice, seed uint64) {
	rnd := rng.New(seed | 1)
	bb := int64(d.BlockBytes())
	buf := make([]byte, 2*bb+1)
	for i := 0; i < 200; i++ {
		index := rnd.Uint64n(d.Blocks() + d.Blocks()/4 + 1)
		p := buf[:rnd.Intn(len(buf)+1)]
		switch rnd.Intn(4) {
		case 0:
			d.Read(index)
		case 1:
			d.Write(index, p[:min(int64(len(p)), bb)])
		case 2:
			d.ReadAt(p, int64(index)*bb-1)
		case 3:
			d.WriteAt(p, int64(index)*bb+3)
		}
	}
	d.Flush()
}

// FuzzConfig runs runConfig over fuzzer-chosen configurations. The seeds
// are the defects it was written against and the ones its first probes
// found: geometry that reached make() and killed the process (a bucket
// size, a block size) and a RoundSlots so large that the first round —
// hence the first Read — never ended. One more is the largest geometry
// the clamped sizes allow, 1024 blocks in buckets of 64 slots, where every
// scan of a bucket's occupied prefix can run its full width. (The slot
// encoding's own limit, 2^32 blocks, lies far past the clamp;
// TestValidateBoundsTreeDepth and TestOversizedCapacityRefused pin it.)
// The two committed corpus entries are named for the simulator cache-line
// size and bandwidth they once set; both are constants now, and the
// entries keep the rest of their configurations.
func FuzzConfig(f *testing.F) {
	f.Add([]byte{})
	for _, mutate := range []func(c *Config){
		func(c *Config) {},
		func(c *Config) { c.Z = 1 << 30 },
		func(c *Config) { c.BlockBytes = 1 << 40 },
		func(c *Config) { c.RoundSlots = math.MaxInt },
		func(c *Config) { c.Blocks, c.Z = 1024, 64 },
	} {
		f.Add(configSeed(mutate))
	}
	f.Fuzz(runConfig)
}

// configSeed encodes, in the order runConfig reads it, a small
// configuration on the packed banked device with one mutation applied to
// it. Everything after the simulator's ORAMBlocks is left to the zeros an
// exhausted input deals.
func configSeed(mutate func(*Config)) []byte {
	c := Config{Blocks: 200, Scheme: SchemeDynamic, MaxSuperBlock: 2, Seed: 7, Partitions: 2,
		DRAM: DRAMBankedPacked}
	mutate(&c)
	var b []byte
	raw := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	put := func(v int) {
		if v >= 0 && v < 0xF0 {
			b = append(b, byte(v))
			return
		}
		b = append(b, 0xF0)
		raw(uint64(v))
	}
	put(int(c.Blocks))
	put(c.BlockBytes)
	put(int(c.Scheme))
	put(c.MaxSuperBlock)
	put(c.CacheBlocks)
	put(c.Z)
	put(c.StashBlocks)
	raw(c.Seed)
	put(c.Partitions)
	put(c.RoundSlots)
	b = append(b, byte(c.DRAM))
	b = append(b, 0) // Key: derived from Seed
	put(0)           // Memory
	b = append(b, 0) // StreamPrefetcher
	put(0xEF)        // ORAMBlocks
	return b
}

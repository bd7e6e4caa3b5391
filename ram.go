package proram

import (
	"encoding/binary"
	"fmt"

	"proram/internal/oram"
	"proram/internal/seal"
	"proram/internal/shard"
)

// RAM is an oblivious RAM: a block store whose physical access pattern
// reveals nothing about which blocks are read or written. Payloads are
// AES-CTR encrypted at rest with a fresh nonce on every write-back, and
// the access pattern is produced by a full Unified Path ORAM controller
// with the configured PrORAM prefetching scheme.
//
// RAM is not safe for concurrent use: it models the paper's single ORAM
// controller, whose state machine admits one access at a time, so callers
// serialize. For concurrent clients use NewSharded, which partitions the
// address space across independent controllers and schedules requests in
// padded rounds — concurrency there is safe because each partition's
// state is confined to one worker goroutine and the cross-partition
// access pattern is fixed per round regardless of the request mix.
type RAM struct {
	cfg   Config
	store *shard.Store
	// cache is the client-side plaintext block cache (the LLC stand-in),
	// the same one every ShardedRAM partition runs.
	cache *shard.Cache

	reads     uint64
	writes    uint64
	cacheHits uint64
}

// New builds an oblivious RAM.
func New(cfg Config) (*RAM, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	store, err := newStore(cfg)
	if err != nil {
		return nil, err
	}
	cache, err := shard.NewCache(store, cfg.CacheBlocks, nil)
	if err != nil {
		return nil, fmt.Errorf("proram: CacheBlocks: %w", err)
	}
	return &RAM{cfg: cfg, store: store, cache: cache}, nil
}

// newStore assembles the controller + sealer + payload storage bundle the
// unified RAM shares with the sharded frontend's partitions.
func newStore(cfg Config) (*shard.Store, error) {
	ctrl, err := oram.New(cfg.oramConfig())
	if err != nil {
		return nil, err
	}
	sealer, err := seal.New(cfg.sealKey(), cfg.nonceSource())
	if err != nil {
		return nil, err
	}
	return shard.NewStore(ctrl, sealer, cfg.BlockBytes), nil
}

// Blocks returns the capacity in blocks.
func (r *RAM) Blocks() uint64 { return r.cfg.Blocks }

// BlockBytes returns the block size.
func (r *RAM) BlockBytes() int { return r.cfg.BlockBytes }

// Stats returns usage statistics.
func (r *RAM) Stats() Stats {
	return statsFrom(r.store.Ctrl.Stats(), r.reads, r.writes, r.cacheHits)
}

// Read returns a copy of the block at index.
func (r *RAM) Read(index uint64) ([]byte, error) {
	if index >= r.cfg.Blocks {
		return nil, fmt.Errorf("proram: block %d out of range (%d blocks)", index, r.cfg.Blocks)
	}
	r.reads++
	line, err := r.fetch(index)
	if err != nil {
		return nil, err
	}
	return line.Bytes(), nil
}

// Write stores data (at most BlockBytes; shorter slices are zero-padded)
// into the block at index.
func (r *RAM) Write(index uint64, data []byte) error {
	if index >= r.cfg.Blocks {
		return fmt.Errorf("proram: block %d out of range (%d blocks)", index, r.cfg.Blocks)
	}
	if len(data) > r.cfg.BlockBytes {
		return fmt.Errorf("proram: %d bytes exceed the %d-byte block size", len(data), r.cfg.BlockBytes)
	}
	r.writes++
	line, err := r.fetch(index)
	if err != nil {
		return err
	}
	line.Set(data)
	return nil
}

// fetch returns the cached line for index, loading it through the ORAM on
// a miss (with whatever siblings the prefetcher returns). A miss ends by
// writing back the dirty lines its installs queued: with no rounds to
// spread them over, the ORAM sees the read and then the write-backs, as if
// each eviction had written its victim inline.
func (r *RAM) fetch(index uint64) (*shard.Line, error) {
	if line := r.cache.Lookup(index); line != nil {
		r.cacheHits++
		return line, nil
	}
	line, err := r.cache.Fetch(index)
	if err != nil {
		return nil, fmt.Errorf("proram: %w", err)
	}
	for {
		wrote, err := r.cache.Drain()
		if err != nil {
			return nil, fmt.Errorf("proram: %w", err)
		}
		if !wrote {
			return line, nil
		}
	}
}

// Flush writes every dirty cached block back to the ORAM. The cache stays
// warm (lines remain cached, now clean).
func (r *RAM) Flush() error {
	if _, failed, err := r.cache.Flush(); err != nil {
		return fmt.Errorf("proram: flush left %d blocks dirty: %w", failed, err)
	}
	return nil
}

// ReadAt implements random byte-granular reads across block boundaries.
func (r *RAM) ReadAt(p []byte, off int64) (int, error) {
	return readAt(r, r.cfg, p, off)
}

// WriteAt implements random byte-granular writes across block boundaries.
func (r *RAM) WriteAt(p []byte, off int64) (int, error) {
	return writeAt(r, r.cfg, p, off)
}

// deriveKey expands a seed into a deterministic 16-byte AES key (used when
// no key is supplied; fine for simulation, not for real secrets).
func deriveKey(seed uint64) []byte {
	key := make([]byte, 16)
	binary.LittleEndian.PutUint64(key, seed*0x9e3779b97f4a7c15+1)
	binary.LittleEndian.PutUint64(key[8:], seed^0xd1b54a32d192ed03)
	return key
}

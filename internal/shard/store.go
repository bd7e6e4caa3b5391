package shard

import (
	"fmt"

	"proram/internal/oram"
	"proram/internal/seal"
)

// Store binds one Path ORAM controller to its sealed payload storage and
// its simulated clock: the complete "one oblivious block device" bundle.
// The unified proram.RAM owns exactly one Store; the sharded frontend owns
// one per partition, each under one Cache.
//
// A Store is not safe for concurrent use: the unified RAM serializes
// callers, and each partition worker goroutine owns its Store exclusively.
type Store struct {
	// Ctrl is the trusted controller producing the physical access pattern.
	Ctrl *oram.Controller
	// Sealer encrypts payloads at rest with a fresh nonce per write-back.
	Sealer *seal.Sealer
	// Sealed is the untrusted payload storage, keyed by block index.
	// Absent entries read as zero blocks. The map is only ever indexed,
	// never iterated, so it cannot leak Go map order into results.
	Sealed map[uint64][]byte
	// Now is the store's simulated clock, advanced by every access.
	Now uint64

	blockBytes int
}

// NewStore assembles a store around an existing controller and sealer.
func NewStore(ctrl *oram.Controller, sealer *seal.Sealer, blockBytes int) *Store {
	return &Store{
		Ctrl:       ctrl,
		Sealer:     sealer,
		Sealed:     make(map[uint64][]byte),
		blockBytes: blockBytes,
	}
}

// BlockBytes returns the plaintext block size.
func (s *Store) BlockBytes() int { return s.blockBytes }

// DemandRead performs one full recursive ORAM read of index at the current
// clock and advances it. The result carries prefetched sibling indices.
func (s *Store) DemandRead(index uint64) oram.Result {
	res := s.Ctrl.Read(s.Now, index)
	s.Now = res.Done
	return res
}

// WriteBack seals data and commits it as block index: ciphertext to the
// sealed storage, address to the ORAM (one full write-back access). This
// is the single seal-and-write-back path shared by the unified RAM's
// eviction and flush and by the partition workers.
func (s *Store) WriteBack(index uint64, data []byte) error {
	// Over the block's previous ciphertext: Seal draws its nonce before it
	// touches dst, so a failed seal leaves the old one intact.
	sealed, err := s.Sealer.Seal(s.Sealed[index][:0], data)
	if err != nil {
		return err
	}
	s.Sealed[index] = sealed
	res := s.Ctrl.Write(s.Now, index)
	s.Now = res.Done
	return nil
}

// Load returns a fresh plaintext buffer for block index: the decrypted
// payload when one is stored, an all-zero block otherwise. A stored
// ciphertext of any length but the sealed block size is corrupt — opened,
// it would hand the caller a short (or long) block. Load performs no ORAM
// access — callers pair it with DemandRead (or a prefetch result).
func (s *Store) Load(index uint64) ([]byte, error) {
	data := make([]byte, s.blockBytes)
	if sealed, ok := s.Sealed[index]; ok {
		if want := seal.SealedSize(s.blockBytes); len(sealed) != want {
			return nil, fmt.Errorf("block %d corrupt: %d sealed bytes, want %d", index, len(sealed), want)
		}
		plain, err := s.Sealer.Open(data[:0], sealed)
		if err != nil {
			return nil, fmt.Errorf("block %d corrupt: %w", index, err)
		}
		data = plain
	}
	return data, nil
}

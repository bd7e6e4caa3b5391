// Package seal provides the probabilistic block encryption Path ORAM
// requires (§2.1): every block written to the untrusted tree is encrypted
// under a fresh nonce, so the adversary cannot tell real blocks from
// dummies or detect whether a block changed.
//
// The construction is AES-128/256-CTR with a random 16-byte nonce prefixed
// to the ciphertext, built entirely from the standard library. Integrity
// (authenticated encryption / Merkle trees) is out of scope here, as it is
// in the paper.
package seal

import (
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"fmt"
	"io"
)

// NonceSize is the number of bytes prepended to every sealed block.
const NonceSize = aes.BlockSize

// Sealer encrypts and decrypts blocks. It is not safe for concurrent use,
// and neither is the deterministic nonce source the library gives it:
// Seal reads each nonce into the Sealer's own scratch array, because a
// local array would escape through the io.Reader and cost an allocation
// per seal. Each Store owns its own Sealer.
type Sealer struct {
	block   cipher.Block
	nonce   io.Reader
	scratch [NonceSize]byte
}

// New builds a Sealer from a 16-, 24- or 32-byte AES key and a nonce
// source (crypto/rand.Reader in production; any deterministic reader in
// tests).
func New(key []byte, nonceSource io.Reader) (*Sealer, error) {
	if nonceSource == nil {
		return nil, errors.New("seal: nil nonce source")
	}
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("seal: %w", err)
	}
	return &Sealer{block: b, nonce: nonceSource}, nil
}

// SealedSize returns the on-disk size of a sealed plaintext of n bytes.
func SealedSize(n int) int { return NonceSize + n }

// Seal encrypts plaintext under a fresh nonce and returns nonce||ct,
// appended to dst.
func (s *Sealer) Seal(dst, plaintext []byte) ([]byte, error) {
	nonce := s.scratch[:]
	if _, err := io.ReadFull(s.nonce, nonce); err != nil {
		return nil, fmt.Errorf("seal: reading nonce: %w", err)
	}
	off := len(dst)
	dst = append(dst, nonce...)
	dst = append(dst, plaintext...)
	stream := cipher.NewCTR(s.block, nonce)
	stream.XORKeyStream(dst[off+NonceSize:], dst[off+NonceSize:])
	return dst, nil
}

// Open decrypts a sealed block produced by Seal, appending the plaintext
// to dst.
func (s *Sealer) Open(dst, sealed []byte) ([]byte, error) {
	if len(sealed) < NonceSize {
		return nil, fmt.Errorf("seal: sealed block too short (%d bytes)", len(sealed))
	}
	off := len(dst)
	dst = append(dst, sealed[NonceSize:]...)
	stream := cipher.NewCTR(s.block, sealed[:NonceSize])
	stream.XORKeyStream(dst[off:], dst[off:])
	return dst, nil
}

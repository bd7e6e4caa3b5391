// Package seal provides the probabilistic block encryption Path ORAM
// requires (§2.1): every block written to the untrusted tree is encrypted
// under a fresh nonce, so the adversary cannot tell real blocks from
// dummies or detect whether a block changed.
//
// A sealed block is a 16-byte IV followed by the plaintext under
// AES-128/256-CTR started at that IV: textbook CTR, built entirely from the
// standard library. The IV is a random 96-bit nonce N followed by the
// counter word 00000002. By the birthday bound, two seals under one key
// are likely to share N only after about 2^48 seals, far beyond any store
// here.
//
// The keystream comes from one AES-GCM built per Sealer. With a 96-bit
// nonce, GCM encrypts by plain CTR from the counter block N‖00000002,
// incrementing only the low 32 bits, which cannot wrap below 64 GiB per
// block. So the first len(x) bytes of GCM's output over x are exactly
// cipher.NewCTR(block, N‖00000002) applied to x. GCM writes into a buffer
// the Sealer owns, and it is the standard library's only AES-CTR that
// allocates nothing per call; cipher.NewCTR copies the expanded key to the
// heap on every stream. GCM's tag is computed and discarded: integrity
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

const (
	// NonceSize is the number of random bytes each seal draws.
	NonceSize = 12
	// IVSize is the number of bytes prepended to every sealed block: the
	// nonce and the counter word.
	IVSize = aes.BlockSize
)

// firstCounter is the counter word GCM's keystream starts from, stored
// big-endian in each IV's last four bytes.
var firstCounter = [IVSize - NonceSize]byte{0, 0, 0, 2}

// Sealer encrypts and decrypts blocks. It is not safe for concurrent use,
// and neither is the deterministic nonce source the library gives it:
// Seal reads each nonce into the Sealer's own iv array, because a local
// array would escape through the io.Reader and cost an allocation per
// seal. Each Store owns its own Sealer.
type Sealer struct {
	aead  cipher.AEAD
	nonce io.Reader
	iv    [IVSize]byte
	// out receives GCM's output, the keystream-XORed bytes and the tag. It
	// grows to the largest block plus the tag once and is reused after.
	out []byte
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
	aead, err := cipher.NewGCM(b)
	if err != nil {
		return nil, fmt.Errorf("seal: %w", err)
	}
	s := &Sealer{aead: aead, nonce: nonceSource}
	copy(s.iv[NonceSize:], firstCounter[:])
	return s, nil
}

// SealedSize returns the on-disk size of a sealed plaintext of n bytes.
func SealedSize(n int) int { return IVSize + n }

// Seal encrypts plaintext under a fresh nonce and returns iv||ct, appended
// to dst. It draws the nonce before it touches dst, so a failed seal
// leaves dst's contents as they were. dst grows at most once, to fit the
// whole sealed block.
func (s *Sealer) Seal(dst, plaintext []byte) ([]byte, error) {
	if _, err := io.ReadFull(s.nonce, s.iv[:NonceSize]); err != nil {
		return nil, fmt.Errorf("seal: reading nonce: %w", err)
	}
	if n := SealedSize(len(plaintext)); cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	dst = append(dst, s.iv[:]...)
	return append(dst, s.ctr(s.iv[:NonceSize], plaintext)...), nil
}

// Open decrypts a sealed block produced by Seal, appending the plaintext
// to dst. A block too short to hold an IV, or whose IV does not end in the
// counter word Seal stores, is an error.
func (s *Sealer) Open(dst, sealed []byte) ([]byte, error) {
	if len(sealed) < IVSize {
		return nil, fmt.Errorf("seal: sealed block too short (%d bytes)", len(sealed))
	}
	if [IVSize - NonceSize]byte(sealed[NonceSize:IVSize]) != firstCounter {
		return nil, fmt.Errorf("seal: bad IV counter word %x", sealed[NonceSize:IVSize])
	}
	return append(dst, s.ctr(sealed[:NonceSize], sealed[IVSize:])...), nil
}

// ctr returns x XORed with the CTR keystream from nonce‖00000002. The
// result is the Sealer's buffer, good until the next call.
func (s *Sealer) ctr(nonce, x []byte) []byte {
	s.out = s.aead.Seal(s.out[:0], nonce, x, nil)
	return s.out[:len(x)]
}

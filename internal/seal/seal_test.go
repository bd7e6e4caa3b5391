package seal

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"fmt"
	"testing"
	"testing/quick"

	"proram/internal/rng"
)

var testKey = []byte("0123456789abcdef")

func TestRoundTrip(t *testing.T) {
	s, err := New(testKey, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("the quick brown fox jumps over the lazy dog")
	sealed, err := s.Seal(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != SealedSize(len(msg)) {
		t.Fatalf("sealed size %d, want %d", len(sealed), SealedSize(len(msg)))
	}
	opened, err := s.Open(nil, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(opened, msg) {
		t.Fatalf("round trip lost data: %q", opened)
	}
}

func TestProbabilistic(t *testing.T) {
	// Sealing the same plaintext twice must yield different ciphertexts —
	// the property Path ORAM needs so rewritten paths are unlinkable.
	s, err := New(testKey, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 128)
	a, _ := s.Seal(nil, msg)
	b, _ := s.Seal(nil, msg)
	if bytes.Equal(a, b) {
		t.Fatal("two seals of the same block are identical")
	}
}

func TestCiphertextHidesPlaintext(t *testing.T) {
	s, err := New(testKey, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte{0xAA}, 128)
	sealed, _ := s.Seal(nil, msg)
	if bytes.Contains(sealed, msg[:16]) {
		t.Fatal("plaintext visible in ciphertext")
	}
}

func TestRoundTripProperty(t *testing.T) {
	s, err := New(testKey, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	f := func(msg []byte) bool {
		sealed, err := s.Seal(nil, msg)
		if err != nil {
			return false
		}
		opened, err := s.Open(nil, sealed)
		if err != nil {
			return false
		}
		return bytes.Equal(opened, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBadInputs(t *testing.T) {
	if _, err := New([]byte("short"), rand.Reader); err == nil {
		t.Fatal("bad key accepted")
	}
	if _, err := New(testKey, nil); err == nil {
		t.Fatal("nil nonce source accepted")
	}
	s, _ := New(testKey, rand.Reader)
	if _, err := s.Open(nil, []byte{1, 2, 3}); err == nil {
		t.Fatal("truncated block opened")
	}
}

func TestAppendSemantics(t *testing.T) {
	s, _ := New(testKey, rand.Reader)
	prefix := []byte("prefix")
	sealed, _ := s.Seal(append([]byte(nil), prefix...), []byte("data"))
	if !bytes.HasPrefix(sealed, prefix) {
		t.Fatal("Seal clobbered dst prefix")
	}
	opened, err := s.Open(append([]byte(nil), prefix...), sealed[len(prefix):])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(opened, append(prefix, []byte("data")...)) {
		t.Fatalf("Open append semantics broken: %q", opened)
	}
}

func TestEmptyPlaintext(t *testing.T) {
	s, _ := New(testKey, rand.Reader)
	sealed, err := s.Seal(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := s.Open(nil, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if len(opened) != 0 {
		t.Fatalf("empty round trip produced %d bytes", len(opened))
	}
}

// TestFailedSealLeavesDst: a nonce source that runs dry fails the seal
// before dst is touched, so a caller sealing over a block's previous
// ciphertext keeps it.
func TestFailedSealLeavesDst(t *testing.T) {
	s, _ := New(testKey, bytes.NewReader(make([]byte, NonceSize+5)))
	old, err := s.Seal(nil, []byte("old"))
	if err != nil {
		t.Fatal(err)
	}
	keep := append([]byte(nil), old...)
	if _, err := s.Seal(old[:0], []byte("new")); err == nil {
		t.Fatal("Seal succeeded on a short nonce source")
	}
	if !bytes.Equal(old, keep) {
		t.Fatal("a failed Seal overwrote dst")
	}
}

// TestFormatIsTextbookCTR pins the sealed format: Seal's output is its
// IV followed by the plaintext under cipher.NewCTR from that IV, and a
// block sealed that way under a nonce‖00000002 IV opens with Open. The
// all-0xff nonce puts every bit above the counter word at one, so a carry
// out of the low 32 bits would show.
func TestFormatIsTextbookCTR(t *testing.T) {
	block, err := aes.NewCipher(testKey)
	if err != nil {
		t.Fatal(err)
	}
	lengths := []int{4096}
	for n := 0; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	for _, fill := range []byte{0x00, 0x5a, 0xff} {
		for _, n := range lengths {
			s, err := New(testKey, bytes.NewReader(bytes.Repeat([]byte{fill}, NonceSize)))
			if err != nil {
				t.Fatal(err)
			}
			plain := make([]byte, n)
			if _, err := rand.Read(plain); err != nil {
				t.Fatal(err)
			}
			sealed, err := s.Seal(nil, plain)
			if err != nil {
				t.Fatal(err)
			}
			iv := append(bytes.Repeat([]byte{fill}, NonceSize), 0, 0, 0, 2)
			if !bytes.Equal(sealed[:IVSize], iv) {
				t.Fatalf("fill %#x, %d bytes: IV %x, want %x", fill, n, sealed[:IVSize], iv)
			}
			opened := make([]byte, n)
			cipher.NewCTR(block, iv).XORKeyStream(opened, sealed[IVSize:])
			if !bytes.Equal(opened, plain) {
				t.Fatalf("fill %#x, %d bytes: Seal's output does not open with cipher.NewCTR", fill, n)
			}

			ctr := append(append([]byte(nil), iv...), make([]byte, n)...)
			cipher.NewCTR(block, iv).XORKeyStream(ctr[IVSize:], plain)
			opened, err = s.Open(nil, ctr)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(opened, plain) {
				t.Fatalf("fill %#x, %d bytes: cipher.NewCTR's output does not open with Open", fill, n)
			}
		}
	}
}

// TestOpenRejectsBadCounter: an IV whose counter word is not the one Seal
// stores is an error, and no damage to the IV makes Open panic.
func TestOpenRejectsBadCounter(t *testing.T) {
	s, _ := New(testKey, rand.Reader)
	sealed, err := s.Seal(nil, make([]byte, 128))
	if err != nil {
		t.Fatal(err)
	}
	for i := NonceSize; i < IVSize; i++ {
		for _, flip := range []byte{0x01, 0x02, 0x80, 0xff} {
			bad := append([]byte(nil), sealed...)
			bad[i] ^= flip
			if got, err := s.Open(nil, bad); err == nil {
				t.Fatalf("counter byte %d ^ %#x: opened %d bytes", i, flip, len(got))
			}
		}
	}
	for n := 0; n <= IVSize; n++ {
		if _, err := s.Open(nil, bytes.Repeat([]byte{0xff}, n)); err == nil {
			t.Fatalf("a %d-byte all-0xff block opened", n)
		}
	}
}

// TestSealOpenDoNotAllocate: Seal into a buffer with room and Open into a
// sized dst allocate nothing once the Sealer's buffer has grown, and a
// first seal, into nil, allocates only the sealed block.
func TestSealOpenDoNotAllocate(t *testing.T) {
	for _, n := range benchSizes {
		s, err := New(testKey, rng.NewReader(1))
		if err != nil {
			t.Fatal(err)
		}
		plain := make([]byte, n)
		sealed := make([]byte, 0, SealedSize(n))
		seal := func() {
			if sealed, err = s.Seal(sealed[:0], plain); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(100, sixteen(seal)); avg != 0 {
			t.Errorf("%d B: 16 Seal calls allocate %.0f times", n, avg)
		}
		first := func() {
			if _, err = s.Seal(nil, plain); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(100, sixteen(first)); avg != 16 {
			t.Errorf("%d B: 16 Seal calls into nil allocate %.0f times, want 16", n, avg)
		}
		open := func() {
			if plain, err = s.Open(plain[:0], sealed); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(100, sixteen(open)); avg != 0 {
			t.Errorf("%d B: 16 Open calls allocate %.0f times", n, avg)
		}
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

// benchSizes are the benchmark's block size and a page.
var benchSizes = []int{128, 4096}

// BenchmarkSeal seals a block into a reused buffer, as Store.WriteBack
// does over a block's previous ciphertext, with the library's nonce source.
func BenchmarkSeal(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			s, err := New(testKey, rng.NewReader(1))
			if err != nil {
				b.Fatal(err)
			}
			plain := make([]byte, n)
			buf := make([]byte, 0, SealedSize(n))
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if buf, err = s.Seal(buf[:0], plain); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpen opens a sealed block into a reused buffer, as
// Store.LoadInto does into a cache line.
func BenchmarkOpen(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			s, err := New(testKey, rng.NewReader(1))
			if err != nil {
				b.Fatal(err)
			}
			sealed, err := s.Seal(nil, make([]byte, n))
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, n)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if buf, err = s.Open(buf[:0], sealed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

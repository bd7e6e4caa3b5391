// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// Every stochastic component of the simulator (leaf remapping, workload
// generation, bank hashing) takes an explicit *rng.Source so that whole
// experiments are reproducible from a single seed. The generator is
// xoshiro256**, seeded through splitmix64, following the reference
// constructions by Blackman and Vigna.
package rng

import "math"

// Source is a deterministic xoshiro256** generator. The zero value is not
// usable; construct one with New.
type Source struct {
	s [4]uint64
}

// splitmix64 advances the given state and returns the next output. It is
// used only to expand a 64-bit seed into the 256-bit xoshiro state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds yield independent
// streams for practical purposes.
func New(seed uint64) *Source {
	var r Source
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// Guard against the (astronomically unlikely) all-zero state, which is
	// a fixed point of xoshiro.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// Fork derives a new independent Source from r. It is used to hand separate
// streams to sub-components without correlating their draws.
func (r *Source) Fork() *Source {
	return New(r.Uint64() ^ 0xa0761d6478bd642f)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// It uses Lemire's multiply-shift rejection method, which is unbiased.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		//proram:invariant documented contract matching math/rand: a zero bound is a caller bug, not recoverable input
		panic("rng: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	for {
		v := r.Uint64()
		// Reject the final partial block to remove modulo bias.
		if v < (-n)%n { // (2^64 - n) % n, the size of the biased region
			continue
		}
		return v % n
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		//proram:invariant documented contract matching math/rand.Intn: a non-positive bound is a caller bug
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	// 53 random mantissa bits.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a uniform boolean.
func (r *Source) Bool() bool { return r.Uint64()&1 == 1 }

// Perm returns a uniform random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Zipf draws from a Zipfian distribution over [0, n) with exponent theta in
// (0, 1). It uses the rejection-inversion free approximation common in
// benchmark generators (YCSB-style), precomputed by NewZipf.
type Zipf struct {
	src   *Source
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
}

// NewZipf builds a Zipf sampler over [0, n) with skew theta (0 < theta < 1).
// theta around 0.99 matches the YCSB default.
func NewZipf(src *Source, n uint64, theta float64) *Zipf {
	if n == 0 {
		//proram:invariant a zero population is a construction-time programming error; workload configs validate sizes upstream
		panic("rng: NewZipf with n == 0")
	}
	if theta <= 0 || theta >= 1 {
		//proram:invariant theta outside (0,1) is a construction-time programming error; workload configs validate skew upstream
		panic("rng: NewZipf requires 0 < theta < 1")
	}
	z := &Zipf{src: src, n: n, theta: theta}
	z.zetan = zetaStatic(n, theta)
	z.zeta2 = zetaStatic(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zetaStatic(n uint64, theta float64) float64 {
	sum := 0.0
	// Cap the exact summation; for larger n the tail is approximated by the
	// integral of x^-theta, which is accurate for the smooth Zipf tail.
	const exactCap = 1 << 16
	m := n
	if m > exactCap {
		m = exactCap
	}
	for i := uint64(1); i <= m; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	if n > m {
		// Integral approximation of sum_{m+1..n} x^-theta.
		a := float64(m) + 0.5
		b := float64(n) + 0.5
		sum += (math.Pow(b, 1-theta) - math.Pow(a, 1-theta)) / (1 - theta)
	}
	return sum
}

// Next draws the next Zipf-distributed value in [0, n). Rank 0 is the most
// popular item.
func (z *Zipf) Next() uint64 {
	u := z.src.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

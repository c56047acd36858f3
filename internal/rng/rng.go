// Package rng provides small, fast, deterministic pseudo-random number
// generators used by the synthetic workload models.
//
// The simulator must be bit-for-bit reproducible across runs and across
// machines: every benchmark stream is generated from a fixed seed, and the
// experiment harness relies on that determinism to compare predictors on
// identical streams. math/rand would work, but its generator changed across
// Go releases in the past; owning the generator pins the streams forever.
package rng

import "math/bits"

// SplitMix64 is the seed-expansion generator from Steele, Lea and Flood
// ("Fast splittable pseudorandom number generators", OOPSLA 2014). It is used
// both directly for simple streams and to seed Xoshiro256.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64 random bits.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Xoshiro256 implements xoshiro256** 1.0 (Blackman & Vigna), a fast
// all-purpose generator with 256 bits of state and period 2^256-1.
//
// The four state words are named fields rather than an array, and Next
// stores them back with one composite literal: both keep Next, and Bool
// through it, under the compiler's inlining budget, and the workload
// generator draws several words per instruction.
type Xoshiro256 struct {
	s0, s1, s2, s3 uint64
}

// NewXoshiro256 returns a generator whose state is expanded from seed with
// SplitMix64, as the xoshiro authors recommend.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	x := Xoshiro256{s0: sm.Next(), s1: sm.Next(), s2: sm.Next(), s3: sm.Next()}
	// An all-zero state would be absorbing; SplitMix64 cannot produce four
	// zero outputs in a row, but guard anyway so a hostile seed cannot wedge
	// the generator.
	if x.s0|x.s1|x.s2|x.s3 == 0 {
		x.s0 = 0x9e3779b97f4a7c15
	}
	return &x
}

// Next returns the next 64 random bits.
func (x *Xoshiro256) Next() uint64 {
	s0, s1 := x.s0, x.s1
	s2 := x.s2 ^ s0
	s3 := x.s3 ^ s1
	*x = Xoshiro256{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Uint64n returns a uniformly distributed integer in [0, n). It panics if n
// is zero. Uses Lemire's multiply-shift rejection method ("Fast random
// integer generation in an interval", TOMACS 2019): a draw is accepted
// outright when the low product word is at least n, and only otherwise is
// the rejection threshold (2⁶⁴ mod n) computed with a division. Since the
// threshold is below n, this accepts and rejects exactly the draws the
// threshold test alone would.
func (x *Xoshiro256) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return x.Next() & (n - 1)
	}
	hi, lo := bits.Mul64(x.Next(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(x.Next(), n)
		}
	}
	return hi
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(x.Uint64n(uint64(n)))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Next()>>11) / (1 << 53)
}

// Bool returns true with probability p. p outside [0,1] saturates.
func (x *Xoshiro256) Bool(p float64) bool {
	// Float64 spelled out: one call level fewer keeps Bool inlinable.
	return p >= 1 || !(p <= 0) && float64(x.Next()>>11)/(1<<53) < p
}

// Geometric returns a sample from a geometric distribution with success
// probability p (support {1, 2, ...}), clamped to at most max. It is used for
// run lengths in the workload models. p outside (0, 1] is treated as 1.
func (x *Xoshiro256) Geometric(p float64, max int) int {
	if p <= 0 || p >= 1 {
		return 1
	}
	n := 1
	for n < max && !x.Bool(p) {
		n++
	}
	return n
}

// Perm fills dst with a random permutation of [0, len(dst)).
func (x *Xoshiro256) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := x.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}

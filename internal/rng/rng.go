// Package rng provides small, deterministic pseudo-random number
// generators used throughout the simulator and workload generators.
//
// The generators are implemented here rather than taken from math/rand so
// that every experiment in the repository is bit-reproducible across Go
// releases and platforms: the stream produced by a given seed is part of
// the experimental setup and must never drift.
package rng

import (
	"math"
	"math/bits"
)

// splitMix64 is the splitmix64 generator of Steele, Lea and Flood. It
// has a full 2^64 period, passes BigCrush, and seeds Xoshiro256 state
// from a single word.
type splitMix64 struct {
	state uint64
}

// Next returns the next value in the stream.
func (s *splitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Xoshiro256 is the xoshiro256** generator of Blackman and Vigna. It is
// the workhorse generator for workload data streams.
type Xoshiro256 struct {
	s [4]uint64
}

// New returns a Xoshiro256 generator whose state is expanded from seed
// with splitmix64, as recommended by the xoshiro authors. The expander
// is a stack value so seeding costs one allocation, not two.
func New(seed uint64) *Xoshiro256 {
	sm := splitMix64{state: seed}
	var x Xoshiro256
	for i := range x.s {
		x.s[i] = sm.Next()
	}
	// A pathological all-zero state cannot occur: splitmix64 emits zero
	// at most once per period, never four times consecutively.
	return &x
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64-bit value.
func (x *Xoshiro256) Uint64() uint64 {
	result := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
}

// Intn returns a value uniformly distributed in [0, n). It panics if
// n <= 0. The implementation uses Lemire's multiply-shift reduction,
// accepting its negligible bias in exchange for determinism and speed.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	hi, _ := bits.Mul64(x.Uint64(), uint64(n))
	return int(hi)
}

// Float64 returns a value uniformly distributed in [0, 1).
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p. Values of p outside [0, 1] are
// clamped to the nearest bound.
func (x *Xoshiro256) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return x.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n) as a slice.
func (x *Xoshiro256) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := x.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf samples ranks in [0, n) with a Zipf-like distribution of exponent
// s using inverse-CDF over a precomputed table. Build one with NewZipf.
type Zipf struct {
	cdf []float64
	rng *Xoshiro256
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s > 0 drawing
// from r. Rank 0 is the most probable.
func NewZipf(r *Xoshiro256, n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, rng: r}
}

// Next returns the next sampled rank.
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	// Binary search for the first cdf entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

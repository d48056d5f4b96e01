// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the worm-containment library.
//
// The standard library's math/rand is avoided deliberately: its generator
// changed between Go releases (Go 1.20 randomized the global seed, Go 1.22
// swapped the default source), and a reproduction study needs bit-exact
// reproducibility of every simulated sample path across toolchains. The
// two generators here, SplitMix64 and PCG64, are fixed algorithms with
// published reference outputs, so a (seed, stream) pair pins a simulation
// forever.
//
// All generators implement the Source interface, which is what the rest of
// the library consumes. Higher-level samplers (binomial, Poisson,
// exponential, ...) live in package dist and draw from a Source.
package rng

import "math"

// Source is a deterministic stream of pseudo-random numbers.
//
// Implementations must be reproducible: two Sources constructed with the
// same parameters must yield identical streams. Implementations need not
// be safe for concurrent use; callers that share a Source across
// goroutines must synchronize, or better, derive independent streams with
// Split (PCG64) or distinct seeds.
type Source interface {
	// Uint64 returns the next 64 uniformly distributed bits.
	Uint64() uint64

	// Float64 returns a uniform float64 in the half-open interval [0, 1).
	Float64() float64
}

// float64FromBits converts 64 random bits to a uniform float64 in [0, 1)
// using the top 53 bits, the standard full-precision construction.
func float64FromBits(u uint64) float64 {
	return float64(u>>11) / (1 << 53)
}

// SplitMix64 is the 64-bit finalizer-based generator from Steele, Lea and
// Flood (OOPSLA 2014). It passes BigCrush, has a full 2^64 period, and is
// primarily used here to expand a single user seed into the larger state
// of PCG64 and to provide a tiny dependency-free Source for tests.
type SplitMix64 struct {
	state uint64
}

var _ Source = (*SplitMix64)(nil)

// NewSplitMix64 returns a SplitMix64 generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next 64 random bits.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *SplitMix64) Float64() float64 {
	return float64FromBits(s.Uint64())
}

// PCG64 is the pcg64_xsl_rr_128_64 generator of O'Neill (2014): a 128-bit
// linear congruential generator with an xor-shift-low/random-rotation
// output permutation. It is the workhorse Source for all simulations: it
// supports 2^63 independent streams selected by the stream parameter, so
// Monte-Carlo replications can each own a statistically independent
// generator derived from one experiment seed.
type PCG64 struct {
	hi, lo uint64 // 128-bit LCG state
	incHi  uint64 // 128-bit odd increment (stream selector)
	incLo  uint64
}

var _ Source = (*PCG64)(nil)

// 128-bit LCG multiplier used by the PCG reference implementation
// (0x2360ed051fc65da44385df649fccf645).
const (
	pcgMulHi = 0x2360ed051fc65da4
	pcgMulLo = 0x4385df649fccf645
)

// NewPCG64 returns a PCG64 generator for the given seed and stream.
// Distinct streams yield statistically independent sequences even under
// the same seed. The raw parameters are whitened through SplitMix64 so
// that small consecutive seeds (0, 1, 2, ...) still produce well-mixed
// initial states.
func NewPCG64(seed, stream uint64) *PCG64 {
	p := &PCG64{}
	p.Reseed(seed, stream)
	return p
}

// Reseed re-initializes the generator in place to the exact state
// NewPCG64(seed, stream) would construct. Monte-Carlo loops that burn
// one stream per replication can reuse a single generator allocation
// across thousands of replications without changing any draw sequence.
func (p *PCG64) Reseed(seed, stream uint64) {
	mix := NewSplitMix64(seed)
	// The increment must be odd; the stream id selects which odd value.
	smStream := NewSplitMix64(stream ^ 0xda3e39cb94b95bdb)
	p.incHi = smStream.Uint64()
	p.incLo = smStream.Uint64() | 1
	// Standard PCG seeding: state = 0; step; state += seed; step.
	p.hi, p.lo = 0, 0
	p.step()
	lo, carry := add64(p.lo, mix.Uint64())
	p.lo = lo
	p.hi = p.hi + mix.Uint64() + carry
	p.step()
}

// add64 adds two uint64s and reports the carry out.
func add64(a, b uint64) (sum, carry uint64) {
	sum = a + b
	if sum < a {
		carry = 1
	}
	return sum, carry
}

// mul128 computes the 128-bit product (hi, lo) = a * b for 64-bit a, b.
func mul128(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32

	t := aLo * bLo
	lo = t & mask32
	c := t >> 32

	t = aHi*bLo + c
	mid := t & mask32
	hi = t >> 32

	t = aLo*bHi + mid
	lo |= (t & mask32) << 32
	hi += t >> 32

	hi += aHi * bHi
	return hi, lo
}

// step advances the 128-bit LCG state: state = state*mul + inc (mod 2^128).
func (p *PCG64) step() {
	// 128x128 -> low 128 bits of product.
	prodHi, prodLo := mul128(p.lo, pcgMulLo)
	prodHi += p.lo*pcgMulHi + p.hi*pcgMulLo
	// Add increment.
	lo, carry := add64(prodLo, p.incLo)
	p.lo = lo
	p.hi = prodHi + p.incHi + carry
}

// Uint64 returns the next 64 random bits (XSL-RR output function).
func (p *PCG64) Uint64() uint64 {
	hi, lo := p.hi, p.lo
	p.step()
	xored := hi ^ lo
	rot := uint(hi >> 58)
	return xored>>rot | xored<<((64-rot)&63)
}

// Float64 returns a uniform float64 in [0, 1).
func (p *PCG64) Float64() float64 {
	return float64FromBits(p.Uint64())
}

// PCG64State is the complete exported state of a PCG64 generator: the
// 128-bit LCG position and the 128-bit odd stream increment. It is a
// plain value, so checkpoint formats can serialize it field by field.
type PCG64State struct {
	Hi, Lo       uint64 // 128-bit LCG state
	IncHi, IncLo uint64 // 128-bit odd increment (stream selector)
}

// State exports the generator's complete internal state mid-stream.
// SetState on any PCG64 reproduces the identical remaining draw
// sequence — the checkpoint/restore primitive.
func (p *PCG64) State() PCG64State {
	return PCG64State{Hi: p.hi, Lo: p.lo, IncHi: p.incHi, IncLo: p.incLo}
}

// SetState restores a state previously obtained from State. The
// increment's low bit is forced odd, the one structural invariant PCG64
// requires; every other bit pattern is a valid state.
func (p *PCG64) SetState(st PCG64State) {
	p.hi, p.lo = st.Hi, st.Lo
	p.incHi, p.incLo = st.IncHi, st.IncLo|1
}

// split derives a new, statistically independent PCG64 stream from the
// current generator. It consumes two values from the parent. Use it to
// hand each Monte-Carlo replication or each simulated host its own
// generator without coordinating stream ids manually.
func (p *PCG64) split() *PCG64 {
	return NewPCG64(p.Uint64(), p.Uint64())
}

// Uint64n returns a uniform integer in [0, n) drawn from src.
// It panics if n == 0. It uses Lemire's multiply-shift rejection method,
// which is unbiased and needs no divisions in the common case.
func Uint64n(src Source, n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two: mask.
	if n&(n-1) == 0 {
		return src.Uint64() & (n - 1)
	}
	// Lemire rejection sampling on the 128-bit product.
	thresh := -n % n // (2^64 - n) mod n
	for {
		v := src.Uint64()
		hi, lo := mul128(v, n)
		if lo >= thresh {
			return hi
		}
	}
}

// Intn returns a uniform integer in [0, n) drawn from src.
// It panics if n <= 0.
func Intn(src Source, n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(Uint64n(src, uint64(n)))
}

// Exponential returns an exponentially distributed variate with the given
// rate (mean 1/rate) drawn from src. It panics if rate <= 0. Exponential
// inter-scan times drive the continuous-time worm simulator.
func Exponential(src Source, rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential with rate <= 0")
	}
	// -log(1-U) with U in [0,1) avoids log(0).
	return -math.Log1p(-src.Float64()) / rate
}

// perm fills a permutation of [0, n) using the Fisher–Yates shuffle.
func perm(src Source, n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := Intn(src, i+1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// shuffle randomizes the order of n elements using the provided swap
// function, as in math/rand.shuffle, but driven by a deterministic Source.
func shuffle(src Source, n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := Intn(src, i+1)
		swap(i, j)
	}
}

package dist

import (
	"fmt"
	"math"

	"wormcontain/internal/rng"
)

// Binomial is the Binomial(N, P) distribution: the number of successes in
// N independent trials with success probability P. In the worm model this
// is the offspring distribution ξ of Eq. (2): an infected host performs
// N = M scans, each finding a vulnerable host with probability
// P = V / 2^32.
type Binomial struct {
	N int     // number of trials (total scans M)
	P float64 // per-trial success probability (vulnerability density p)
}

// newBinomial validates the parameters and returns the distribution.
func newBinomial(n int, p float64) (Binomial, error) {
	if n < 0 {
		return Binomial{}, fmt.Errorf("dist: binomial trials n = %d, must be >= 0", n)
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return Binomial{}, fmt.Errorf("dist: binomial probability p = %v, must be in [0, 1]", p)
	}
	return Binomial{N: n, P: p}, nil
}

// mean returns E[ξ] = N·P, the basic reproduction number of the worm when
// ξ is the offspring law.
func (b Binomial) mean() float64 { return float64(b.N) * b.P }

// variance returns var[ξ] = N·P·(1−P).
func (b Binomial) variance() float64 { return float64(b.N) * b.P * (1 - b.P) }

// logPMF returns ln P{ξ = k}. Values outside [0, N] give -Inf.
func (b Binomial) logPMF(k int) float64 {
	if k < 0 || k > b.N {
		return math.Inf(-1)
	}
	switch b.P {
	case 0:
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	case 1:
		if k == b.N {
			return 0
		}
		return math.Inf(-1)
	}
	return logChoose(b.N, k) +
		float64(k)*math.Log(b.P) +
		float64(b.N-k)*math.Log1p(-b.P)
}

// pmf returns P{ξ = k}.
func (b Binomial) pmf(k int) float64 { return math.Exp(b.logPMF(k)) }

// cdf returns P{ξ <= k} by direct summation. The paper regime always has
// negligible mass beyond a few hundred, so summation is cheap; for large k
// the tail sum is truncated once terms underflow.
func (b Binomial) cdf(k int) float64 {
	if k < 0 {
		return 0
	}
	if k >= b.N {
		return 1
	}
	sum := 0.0
	for i := 0; i <= k; i++ {
		sum += b.pmf(i)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// pgf evaluates the probability generating function
// φ(s) = E[s^ξ] = (P·s + (1−P))^N of Section III-B.
func (b Binomial) pgf(s float64) float64 {
	return math.Pow(b.P*s+(1-b.P), float64(b.N))
}

// sample draws one variate. For the worm regime (N large, N·P moderate)
// it uses the BTPE-free "first waiting time" geometric-skip method, which
// runs in O(N·P) expected time instead of O(N); for small N it falls back
// to direct Bernoulli summation.
//
// sample recomputes the geometric-skip constant on every call; loops
// drawing many variates from one distribution should hoist a Sampler
// instead, which draws the identical sequence.
func (b Binomial) sample(src rng.Source) int {
	return b.Sampler().Sample(src)
}

// BinomialSampler is the draw-ready form of a Binomial: the constants
// the sampling loop needs — in the geometric-skip regime, ln(1−P) — are
// computed once at construction instead of once per variate. The draw
// sequence is bit-identical to Binomial.Sample's, so swapping one in is
// a pure optimization: Monte-Carlo engines sampling millions of
// offspring counts per replication keep the same sample paths.
type BinomialSampler struct {
	n    int
	p    float64
	logQ float64 // ln(1−P), hoisted out of the geometric-skip loop
}

// Sampler returns the draw-ready sampler for the distribution.
func (b Binomial) Sampler() BinomialSampler {
	s := BinomialSampler{n: b.N, p: b.P}
	if b.P > 0 && b.P < 1 && b.N > 32 {
		s.logQ = math.Log1p(-b.P)
	}
	return s
}

// Sample draws one variate; see Binomial.Sample for the method.
func (s BinomialSampler) Sample(src rng.Source) int {
	switch {
	case s.p <= 0 || s.n == 0:
		return 0
	case s.p >= 1:
		return s.n
	case s.n <= 32:
		// Direct simulation: cheap and exact.
		k := 0
		for i := 0; i < s.n; i++ {
			if src.Float64() < s.p {
				k++
			}
		}
		return k
	default:
		// Geometric skip: successive gaps between successes are
		// Geometric(P); expected iterations = N·P + 1.
		k, i := 0, 0
		for {
			// Skip ahead by a Geometric(P) gap.
			gap := int(math.Log1p(-src.Float64()) / s.logQ)
			i += gap + 1
			if i > s.n {
				return k
			}
			k++
		}
	}
}

// poissonApprox returns the Poisson distribution with matched mean
// λ = N·P. Section III-C of the paper uses this approximation ("since p
// is typically small, ξ can be accurately approximated by a Poisson
// random variable with mean λ = Mp").
func (b Binomial) poissonApprox() Poisson {
	return Poisson{Lambda: b.mean()}
}

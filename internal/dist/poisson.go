package dist

import (
	"fmt"
	"math"

	"wormcontain/internal/rng"
)

// Poisson is the Poisson(λ) distribution. In the worm model it is the
// large-M, small-p limit of the Binomial(M, p) offspring law, with
// λ = M·p the expected number of secondary infections per infected host.
// λ plays the role of the basic reproduction number: the worm is
// subcritical (dies out with probability 1) iff λ <= 1.
type Poisson struct {
	Lambda float64
}

// newPoisson validates λ and returns the distribution. λ = 0 is legal and
// denotes the point mass at zero.
func newPoisson(lambda float64) (Poisson, error) {
	if lambda < 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return Poisson{}, fmt.Errorf("dist: poisson lambda = %v, must be finite and >= 0", lambda)
	}
	return Poisson{Lambda: lambda}, nil
}

// mean returns E[ξ] = λ.
func (p Poisson) mean() float64 { return p.Lambda }

// logPMF returns ln P{ξ = k} = k·ln λ − λ − ln k!.
func (p Poisson) logPMF(k int) float64 {
	if k < 0 {
		return math.Inf(-1)
	}
	if p.Lambda == 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	return float64(k)*math.Log(p.Lambda) - p.Lambda - logFactorial(k)
}

// pmf returns P{ξ = k}.
func (p Poisson) pmf(k int) float64 { return math.Exp(p.logPMF(k)) }

// cdf returns P{ξ <= k} by stable forward recursion on the PMF terms.
func (p Poisson) cdf(k int) float64 {
	if k < 0 {
		return 0
	}
	term := math.Exp(-p.Lambda) // P{ξ = 0}
	sum := term
	for i := 1; i <= k; i++ {
		term *= p.Lambda / float64(i)
		sum += term
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// pgf evaluates φ(s) = E[s^ξ] = exp(λ(s − 1)).
func (p Poisson) pgf(s float64) float64 {
	return math.Exp(p.Lambda * (s - 1))
}

// sample draws one variate. Small λ uses Knuth's product method; large λ
// (>= 30) uses table-free inversion by sequential search started at the
// mode, which stays exact, consumes exactly one uniform per variate, and
// is fast enough for λ in the hundreds that this library ever uses.
func (p Poisson) sample(src rng.Source) int {
	if p.Lambda == 0 {
		return 0
	}
	if p.Lambda < 30 {
		// Knuth: count exponential arrivals within one unit of time.
		limit := math.Exp(-p.Lambda)
		k := 0
		prod := src.Float64()
		for prod > limit {
			k++
			prod *= src.Float64()
		}
		return k
	}
	// Inversion from the mode: find the smallest k (by mass accumulated
	// outward from the mode) whose cumulative probability exceeds u.
	// Starting at the mode instead of zero keeps the expected number of
	// PMF terms O(√λ) and avoids the exp(-λ) underflow that kills
	// inversion-from-zero for large λ. The PMF terms on each side follow
	// from the recurrences P(k+1) = P(k)·λ/(k+1), P(k−1) = P(k)·k/λ.
	u := src.Float64()
	mode := int(p.Lambda)
	pm := math.Exp(p.logPMF(mode))
	acc := pm
	if u < acc {
		return mode
	}
	lo, hi := mode, mode
	plo, phi := pm, pm
	for {
		progressed := false
		if phi > 0 {
			hi++
			phi *= p.Lambda / float64(hi)
			acc += phi
			if u < acc {
				return hi
			}
			progressed = phi > 0
		}
		if lo > 0 && plo > 0 {
			plo *= float64(lo) / p.Lambda
			lo--
			acc += plo
			if u < acc {
				return lo
			}
			progressed = progressed || plo > 0
		}
		if !progressed {
			// Both tails have underflowed: u falls in the sliver of
			// mass lost to rounding. The upper tail is where any real
			// residual lives.
			return hi
		}
	}
}

// quantile returns the smallest k with CDF(k) >= q, for q in [0, 1).
func (p Poisson) quantile(q float64) int {
	if q < 0 || q >= 1 {
		panic("dist: Poisson quantile requires q in [0, 1)")
	}
	term := math.Exp(-p.Lambda)
	sum := term
	k := 0
	for sum < q {
		k++
		term *= p.Lambda / float64(k)
		sum += term
	}
	return k
}

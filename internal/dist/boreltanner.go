package dist

import (
	"fmt"
	"math"

	"wormcontain/internal/rng"
)

// BorelTanner is the Borel–Tanner distribution of Eq. (4) in the paper:
// the distribution of the total progeny I = Σ_n I_n of a Galton–Watson
// branching process with Poisson(λ) offspring started from I0 initial
// individuals. For the worm, I is the total number of hosts ever infected
// before the outbreak dies out under the M-scan containment limit, with
// λ = M·p < 1.
//
//	P{I = k} = (I0 / k) · (kλ)^(k−I0) · e^(−kλ) / (k − I0)!,   k >= I0.
type BorelTanner struct {
	Lambda float64 // Poisson offspring mean λ = M·p; must satisfy 0 <= λ < 1
	I0     int     // number of initially infected hosts, >= 1
}

// NewBorelTanner validates parameters. λ must lie in [0, 1): at or above
// criticality the total progeny is infinite with positive probability and
// the distribution is not proper, which is exactly the regime the
// containment scheme is designed to avoid.
func NewBorelTanner(lambda float64, i0 int) (BorelTanner, error) {
	if lambda < 0 || lambda >= 1 || math.IsNaN(lambda) {
		return BorelTanner{}, fmt.Errorf("dist: borel-tanner lambda = %v, must be in [0, 1)", lambda)
	}
	if i0 < 1 {
		return BorelTanner{}, fmt.Errorf("dist: borel-tanner i0 = %d, must be >= 1", i0)
	}
	return BorelTanner{Lambda: lambda, I0: i0}, nil
}

// Mean returns E[I] = I0 / (1 − λ).
func (bt BorelTanner) Mean() float64 {
	return float64(bt.I0) / (1 - bt.Lambda)
}

// Var returns the textbook Borel–Tanner variance
// Var[I] = I0·λ / (1 − λ)³ (offspring variance λ for Poisson offspring).
func (bt BorelTanner) Var() float64 {
	d := 1 - bt.Lambda
	return float64(bt.I0) * bt.Lambda / (d * d * d)
}

// VarPaper returns I0 / (1 − λ)³, the variance formula as printed in
// Section III-C of the paper. The paper's own numeric example
// (I0 = 10, λ = 0.83 → var = 2035, std = 45) uses this form, so the
// experiment harness reports it alongside Var to match the paper's
// tables; the two differ by the factor λ.
func (bt BorelTanner) VarPaper() float64 {
	d := 1 - bt.Lambda
	return float64(bt.I0) / (d * d * d)
}

// logPMF returns ln P{I = k}; k < I0 yields -Inf.
func (bt BorelTanner) logPMF(k int) float64 {
	if k < bt.I0 {
		return math.Inf(-1)
	}
	if bt.Lambda == 0 {
		// Degenerate: no secondary infections, all mass at k = I0.
		if k == bt.I0 {
			return 0
		}
		return math.Inf(-1)
	}
	kf := float64(k)
	m := k - bt.I0
	return math.Log(float64(bt.I0)) - math.Log(kf) +
		float64(m)*math.Log(kf*bt.Lambda) - kf*bt.Lambda -
		logFactorial(m)
}

// pmf returns P{I = k}.
func (bt BorelTanner) pmf(k int) float64 { return math.Exp(bt.logPMF(k)) }

// CDF returns P{I <= k} by summation from k = I0. The sum terminates
// early once the remaining tail is provably negligible (terms past the
// mean decay super-geometrically), so CDF at astronomically large k costs
// only as much as the effective support.
func (bt BorelTanner) CDF(k int) float64 {
	if k < bt.I0 {
		return 0
	}
	meanCeil := int(bt.Mean()) + 1
	sum := 0.0
	for i := bt.I0; i <= k; i++ {
		p := bt.pmf(i)
		sum += p
		if i > meanCeil && p < 1e-18 {
			break
		}
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// Survival returns P{I > k} = 1 − CDF(k). The paper's containment
// guarantees are phrased this way, e.g. "P{I > 20} < 0.05" for Slammer at
// M = 10000.
func (bt BorelTanner) Survival(k int) float64 {
	return 1 - bt.CDF(k)
}

// Quantile returns the smallest k with P{I <= k} >= q, for q in [0, 1).
// It is the inverse used when designing M: "choose M such that with
// probability 0.99 the worm infects at most L hosts".
func (bt BorelTanner) Quantile(q float64) int {
	if q < 0 || q >= 1 {
		panic("dist: BorelTanner quantile requires q in [0, 1)")
	}
	sum := 0.0
	k := bt.I0 - 1
	for sum < q {
		k++
		sum += bt.pmf(k)
		if k > bt.I0+100_000_000 {
			// Defensive: unreachable for λ < 1, but guards against an
			// infinite loop if floating-point mass fails to accumulate.
			panic("dist: BorelTanner quantile did not converge")
		}
	}
	return k
}

// sample draws one total-progeny variate by directly simulating the
// Poisson(λ) Galton–Watson process: it is exact, needs no inversion
// tables, and terminates with probability one since λ < 1.
func (bt BorelTanner) sample(src rng.Source) int {
	off := poisson{Lambda: bt.Lambda}
	total := bt.I0
	active := bt.I0
	for active > 0 {
		next := 0
		for i := 0; i < active; i++ {
			next += off.sample(src)
		}
		total += next
		active = next
	}
	return total
}

// PMFSeries returns P{I = k} for k = I0 .. kMax as a dense slice indexed
// from zero (entries below I0 are zero). This is the series plotted in
// Figs. 4, 7 and 11 of the paper.
func (bt BorelTanner) PMFSeries(kMax int) []float64 {
	out := make([]float64, kMax+1)
	for k := bt.I0; k <= kMax; k++ {
		out[k] = bt.pmf(k)
	}
	return out
}

// CDFSeries returns P{I <= k} for k = 0 .. kMax as a dense slice, the
// series plotted in Figs. 5, 8 and 12.
func (bt BorelTanner) CDFSeries(kMax int) []float64 {
	out := make([]float64, kMax+1)
	sum := 0.0
	for k := 0; k <= kMax; k++ {
		if k >= bt.I0 {
			sum += bt.pmf(k)
		}
		if sum > 1 {
			sum = 1
		}
		out[k] = sum
	}
	return out
}

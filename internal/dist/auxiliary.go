package dist

import (
	"fmt"
	"math"

	"wormcontain/internal/rng"
)

// This file holds the auxiliary continuous and heavy-tailed distributions
// used by the synthetic trace generator (package trace) to reproduce the
// per-host activity statistics of the LBL-CONN-7 dataset: most hosts
// contact few distinct destinations, a handful contact thousands. None of
// these appear in the paper's analytical model; they exist to build a
// realistic background-traffic substrate.

// normal is the N(Mu, Sigma²) distribution, sampled with the Marsaglia
// polar method (no trig, deterministic given a Source).
type normal struct {
	Mu    float64
	Sigma float64
}

// newNormal validates sigma >= 0.
func newNormal(mu, sigma float64) (normal, error) {
	if sigma < 0 || math.IsNaN(sigma) {
		return normal{}, fmt.Errorf("dist: normal sigma = %v, must be >= 0", sigma)
	}
	return normal{Mu: mu, Sigma: sigma}, nil
}

// sample draws one variate.
func (n normal) sample(src rng.Source) float64 {
	if n.Sigma == 0 {
		return n.Mu
	}
	for {
		u := 2*src.Float64() - 1
		v := 2*src.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return n.Mu + n.Sigma*u*math.Sqrt(-2*math.Log(s)/s)
	}
}

// Lognormal is the distribution of e^X with X ~ N(Mu, Sigma²). Distinct-
// destination counts per host are approximately lognormal in wide-area
// traces, with a Pareto tail for the most active scanners.
type Lognormal struct {
	Mu    float64
	Sigma float64
}

// mean returns E = exp(Mu + Sigma²/2).
func (l Lognormal) mean() float64 {
	return math.Exp(l.Mu + l.Sigma*l.Sigma/2)
}

// Sample draws one variate.
func (l Lognormal) Sample(src rng.Source) float64 {
	return math.Exp(normal{Mu: l.Mu, Sigma: l.Sigma}.sample(src))
}

// quantile returns the q-quantile using the logistic approximation to the
// normal quantile (Bowling et al. 2009), accurate to ~1e-2 in probit
// units — sufficient for trace calibration, where quantiles seed
// heuristic activity classes.
func (l Lognormal) quantile(q float64) float64 {
	if q <= 0 || q >= 1 {
		panic("dist: Lognormal quantile requires q in (0, 1)")
	}
	z := -math.Log(1/q-1) / 1.702
	return math.Exp(l.Mu + l.Sigma*z)
}

// pareto is the (type I) pareto distribution with scale Xm > 0 and shape
// Alpha > 0: P{X > x} = (Xm/x)^Alpha for x >= Xm. It models the heavy
// upper tail of per-host activity.
type pareto struct {
	Xm    float64
	Alpha float64
}

// newPareto validates parameters.
func newPareto(xm, alpha float64) (pareto, error) {
	if xm <= 0 || math.IsNaN(xm) {
		return pareto{}, fmt.Errorf("dist: pareto xm = %v, must be > 0", xm)
	}
	if alpha <= 0 || math.IsNaN(alpha) {
		return pareto{}, fmt.Errorf("dist: pareto alpha = %v, must be > 0", alpha)
	}
	return pareto{Xm: xm, Alpha: alpha}, nil
}

// sample draws one variate by inversion.
func (p pareto) sample(src rng.Source) float64 {
	// 1-U in (0,1] avoids division by zero.
	return p.Xm / math.Pow(1-src.Float64(), 1/p.Alpha)
}

// cdf returns P{X <= x}.
func (p pareto) cdf(x float64) float64 {
	if x < p.Xm {
		return 0
	}
	return 1 - math.Pow(p.Xm/x, p.Alpha)
}

// Zipf draws integers in [1, N] with probability proportional to
// 1/rank^S. It models destination popularity: a host's connections
// concentrate on a few popular remote addresses, which matters when
// counting *distinct* destinations against the containment limit.
type Zipf struct {
	N int
	S float64

	cdf []float64 // precomputed normalized cumulative weights
}

// NewZipf precomputes the cumulative distribution table. It returns an
// error for n < 1 or s < 0.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n < 1 {
		return nil, fmt.Errorf("dist: zipf n = %d, must be >= 1", n)
	}
	if s < 0 || math.IsNaN(s) {
		return nil, fmt.Errorf("dist: zipf s = %v, must be >= 0", s)
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), s)
		cdf[i-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{N: n, S: s, cdf: cdf}, nil
}

// Sample draws one rank in [1, N] by binary search over the CDF table.
func (z *Zipf) Sample(src rng.Source) int {
	u := src.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// Package core implements the primary contribution of Sellke, Shroff and
// Bagchi, "Modeling and Automated Containment of Worms" (DSN 2005): the
// branching-process model of early-phase worm propagation (Section III)
// and the automated containment scheme built on it (Section IV).
//
// The package has three layers:
//
//   - WormModel: the analytical model. Given a vulnerable population V,
//     an address-space size Ω and a scan budget M it exposes the offspring
//     law Binomial(M, p = V/Ω), Proposition 1's extinction condition
//     M <= 1/p, the per-generation extinction probabilities of Fig. 3,
//     and the Borel–Tanner total-infection distribution of Eq. (4).
//
//   - Design helpers: invert the model — choose the largest M that meets
//     an operator's containment target ("with probability 0.99 at most L
//     hosts ever get infected"), as prescribed in Section IV step 1.
//
//   - Limiter: the runtime containment engine of Section IV — a per-host
//     counter of distinct destination addresses per containment cycle
//     that removes a host once it has contacted M distinct addresses,
//     with the fraction-f early-checking rule and cycle resets.
package core

import (
	"fmt"
	"math"

	"wormcontain/internal/dist"
)

// IPv4SpaceSize is the size of the IPv4 address space, the scan universe
// of every worm studied in the paper.
const IPv4SpaceSize = 1 << 32

// WormModel captures the branching-process view of a uniform-scanning
// worm in its early phase, per Section III of the paper.
type WormModel struct {
	// Name labels the scenario (e.g. "Code Red") in reports.
	Name string

	// V is the number of vulnerable hosts at the outbreak
	// (360 000 for Code Red, 120 000 for SQL Slammer).
	V int

	// SpaceSize is the size Ω of the scanned address space; p = V/Ω.
	// For Internet worms this is IPv4SpaceSize.
	SpaceSize float64

	// M is the containment limit: the maximum number of scans (distinct
	// destination addresses) a host may issue in one containment cycle.
	M int

	// I0 is the number of initially infected hosts.
	I0 int
}

// NewWormModel validates and returns a model.
func NewWormModel(name string, v int, spaceSize float64, m, i0 int) (WormModel, error) {
	w := WormModel{Name: name, V: v, SpaceSize: spaceSize, M: m, I0: i0}
	if err := w.validate(); err != nil {
		return WormModel{}, err
	}
	return w, nil
}

// validate reports whether the model parameters are usable.
func (w WormModel) validate() error {
	switch {
	case w.V < 1:
		return fmt.Errorf("core: vulnerable population V = %d, must be >= 1", w.V)
	case w.SpaceSize <= 0 || math.IsNaN(w.SpaceSize) || math.IsInf(w.SpaceSize, 0):
		return fmt.Errorf("core: address space size = %v, must be finite and > 0", w.SpaceSize)
	case float64(w.V) > w.SpaceSize:
		return fmt.Errorf("core: V = %d exceeds address space size %v", w.V, w.SpaceSize)
	case w.M < 0:
		return fmt.Errorf("core: scan limit M = %d, must be >= 0", w.M)
	case w.I0 < 1:
		return fmt.Errorf("core: initial infections I0 = %d, must be >= 1", w.I0)
	}
	return nil
}

// Density returns the vulnerability density p = V / Ω of Section III.
func (w WormModel) Density() float64 {
	return float64(w.V) / w.SpaceSize
}

// Lambda returns λ = M·p, the expected offspring per infected host and
// the worm's effective reproduction number under the containment limit.
func (w WormModel) Lambda() float64 {
	return float64(w.M) * w.Density()
}

// offspring returns the exact offspring distribution ξ ~ Binomial(M, p)
// of Eq. (2).
func (w WormModel) offspring() dist.Binomial {
	return dist.Binomial{N: w.M, P: w.Density()}
}

// ExtinctionThreshold returns 1/p, the largest scan limit for which
// Proposition 1 guarantees the worm dies out with probability 1
// (11 930 for Code Red, 35 791 for SQL Slammer).
func (w WormModel) ExtinctionThreshold() float64 {
	return w.SpaceSize / float64(w.V)
}

// GuaranteedExtinction reports Proposition 1's condition: π = 1 iff
// M <= 1/p (equivalently λ <= 1).
func (w WormModel) GuaranteedExtinction() bool {
	return float64(w.M) <= w.ExtinctionThreshold()
}

// ExtinctionProbability returns π = P{worm eventually dies out} for the
// configured M and I0. It is exactly 1 in the guaranteed regime and the
// I0-th power of the smallest PGF fixed point otherwise.
func (w WormModel) ExtinctionProbability() float64 {
	return dist.ExtinctionProbabilityN(w.offspring(), w.I0)
}

// ExtinctionByGeneration returns P_n = P{I_n = 0} for n = 0..gens, the
// per-generation extinction probabilities plotted in Fig. 3, computed by
// iterating the binomial PGF φ(s) = (p·s + 1 − p)^M.
func (w WormModel) ExtinctionByGeneration(gens int) ([]float64, error) {
	return dist.ExtinctionByGeneration(w.offspring(), w.I0, gens)
}

// TotalInfections returns the Borel–Tanner distribution of the total
// number of hosts ever infected, Eq. (4), valid in the contained regime
// λ < 1. It returns an error when M is at or above the extinction
// threshold, where the total is infinite with positive probability.
func (w WormModel) TotalInfections() (dist.BorelTanner, error) {
	lam := w.Lambda()
	if lam >= 1 {
		return dist.BorelTanner{}, fmt.Errorf(
			"core: λ = M·p = %.4f >= 1; total-infection distribution requires M < 1/p = %.0f",
			lam, w.ExtinctionThreshold())
	}
	return dist.NewBorelTanner(lam, w.I0)
}

// CodeRed returns the Code Red v2 scenario used throughout the paper:
// V = 360 000 vulnerable IIS servers in the IPv4 space.
func CodeRed(m, i0 int) WormModel {
	return WormModel{Name: "Code Red", V: 360000, SpaceSize: IPv4SpaceSize, M: m, I0: i0}
}

// SQLSlammer returns the SQL Slammer scenario: V = 120 000 (the
// population size the paper takes from the DIB:S study [10]).
func SQLSlammer(m, i0 int) WormModel {
	return WormModel{Name: "SQL Slammer", V: 120000, SpaceSize: IPv4SpaceSize, M: m, I0: i0}
}

package core

import (
	"fmt"
	"math"
)

// This file extends the branching-process model to preference-scanning
// worms, the direction Section VI proposes as future work: "we believe
// that the worm containment strategy can also be extended to
// preferential scan worms."
//
// The extension is a change of density, not of structure: a scanner that
// spends fraction w_i of its probes inside region i (of Ω_i addresses,
// containing V_i vulnerable hosts) has per-scan hit probability
// p_eff = Σ_i w_i·V_i/Ω_i, and the early phase is again a Galton–Watson
// process with Binomial(M, p_eff) offspring. Every result of Section III
// — Proposition 1's threshold 1/p_eff, the PGF extinction curves, the
// Borel–Tanner outbreak law — carries over with p replaced by p_eff.

// ScanRegion is one component of a preference scanner's target mixture.
type ScanRegion struct {
	// Name labels the region in reports (e.g. "own /8").
	Name string
	// Weight is the fraction of scans aimed at this region; the weights
	// of a mixture must sum to 1.
	Weight float64
	// SpaceSize is the number of addresses in the region.
	SpaceSize float64
	// Vulnerable is the number of vulnerable hosts inside the region.
	Vulnerable int
}

// validate checks a single region.
func (r ScanRegion) validate() error {
	switch {
	case r.Weight < 0 || r.Weight > 1 || math.IsNaN(r.Weight):
		return fmt.Errorf("core: region %q weight %v outside [0, 1]", r.Name, r.Weight)
	case r.SpaceSize <= 0 || math.IsNaN(r.SpaceSize) || math.IsInf(r.SpaceSize, 0):
		return fmt.Errorf("core: region %q space size %v invalid", r.Name, r.SpaceSize)
	case r.Vulnerable < 0:
		return fmt.Errorf("core: region %q vulnerable count %d negative", r.Name, r.Vulnerable)
	case float64(r.Vulnerable) > r.SpaceSize:
		return fmt.Errorf("core: region %q has %d vulnerable in %v addresses",
			r.Name, r.Vulnerable, r.SpaceSize)
	}
	return nil
}

// ScanMixture is a preference scanner's full target distribution.
type ScanMixture struct {
	Regions []ScanRegion
}

// validate checks all regions and that the weights sum to one.
func (m ScanMixture) validate() error {
	if len(m.Regions) == 0 {
		return fmt.Errorf("core: scan mixture needs at least one region")
	}
	total := 0.0
	for _, r := range m.Regions {
		if err := r.validate(); err != nil {
			return err
		}
		total += r.Weight
	}
	if math.Abs(total-1) > 1e-9 {
		return fmt.Errorf("core: scan mixture weights sum to %v, want 1", total)
	}
	return nil
}

// hitDensity returns p_eff = Σ w_i·V_i/Ω_i, the probability that one
// scan of the mixture hits a vulnerable host.
func (m ScanMixture) hitDensity() (float64, error) {
	if err := m.validate(); err != nil {
		return 0, err
	}
	p := 0.0
	for _, r := range m.Regions {
		p += r.Weight * float64(r.Vulnerable) / r.SpaceSize
	}
	return p, nil
}

// GeneralizedThreshold returns 1/p_eff, the largest M for which
// Proposition 1 still guarantees extinction against this scanning
// strategy. For any preference toward vulnerable-dense regions it is
// strictly smaller than the uniform threshold — the operational lesson
// of the A3 ablation.
func (m ScanMixture) GeneralizedThreshold() (float64, error) {
	p, err := m.hitDensity()
	if err != nil {
		return 0, err
	}
	if p == 0 {
		return math.Inf(1), nil
	}
	return 1 / p, nil
}

// PreferenceWormModel builds a WormModel whose density equals the
// mixture's effective hit density, so all of Section III's machinery
// (extinction curves, Borel–Tanner law, DesignM) applies to the
// preference-scanning worm unchanged.
//
// The returned model uses a synthetic (V, SpaceSize) = (1, 1/p_eff)
// parameterization; its Density() is exactly p_eff.
func PreferenceWormModel(name string, mixture ScanMixture, m, i0 int) (WormModel, error) {
	p, err := mixture.hitDensity()
	if err != nil {
		return WormModel{}, err
	}
	if p <= 0 {
		return WormModel{}, fmt.Errorf("core: mixture %q hits no vulnerable hosts", name)
	}
	return NewWormModel(name, 1, 1/p, m, i0)
}

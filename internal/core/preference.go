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

// scanRegion is one component of a preference scanner's target mixture.
type scanRegion struct {
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
func (r scanRegion) validate() error {
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

// scanMixture is a preference scanner's full target distribution.
type scanMixture struct {
	Regions []scanRegion
}

// validate checks all regions and that the weights sum to one.
func (m scanMixture) validate() error {
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
func (m scanMixture) hitDensity() (float64, error) {
	if err := m.validate(); err != nil {
		return 0, err
	}
	p := 0.0
	for _, r := range m.Regions {
		p += r.Weight * float64(r.Vulnerable) / r.SpaceSize
	}
	return p, nil
}

// generalizedThreshold returns 1/p_eff, the largest M for which
// Proposition 1 still guarantees extinction against this scanning
// strategy. For any preference toward vulnerable-dense regions it is
// strictly smaller than the uniform threshold — the operational lesson
// of the A3 ablation.
func (m scanMixture) generalizedThreshold() (float64, error) {
	p, err := m.hitDensity()
	if err != nil {
		return 0, err
	}
	if p == 0 {
		return math.Inf(1), nil
	}
	return 1 / p, nil
}

// preferenceWormModel builds a WormModel whose density equals the
// mixture's effective hit density, so all of Section III's machinery
// (extinction curves, Borel–Tanner law, DesignM) applies to the
// preference-scanning worm unchanged.
//
// The returned model uses a synthetic (V, SpaceSize) = (1, 1/p_eff)
// parameterization; its Density() is exactly p_eff.
func preferenceWormModel(name string, mixture scanMixture, m, i0 int) (WormModel, error) {
	p, err := mixture.hitDensity()
	if err != nil {
		return WormModel{}, err
	}
	if p <= 0 {
		return WormModel{}, fmt.Errorf("core: mixture %q hits no vulnerable hosts", name)
	}
	return NewWormModel(name, 1, 1/p, m, i0)
}

// codeRedIIMixture models a Code Red II-style scanner attacking a
// population of vulnerable hosts clustered in the scanner's own /8:
// weight 0.5 on the /8, 0.375 on the own /16, the rest uniform. v8 and
// v16 are the vulnerable counts inside the /8 and /16; vTotal is the
// global count.
func codeRedIIMixture(v8, v16, vTotal int) scanMixture {
	return scanMixture{Regions: []scanRegion{
		{Name: "own /8", Weight: 0.5, SpaceSize: 1 << 24, Vulnerable: v8},
		{Name: "own /16", Weight: 0.375, SpaceSize: 1 << 16, Vulnerable: v16},
		{Name: "uniform", Weight: 0.125, SpaceSize: IPv4SpaceSize, Vulnerable: vTotal},
	}}
}

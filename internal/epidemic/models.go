package epidemic

import (
	"fmt"
	"math"
)

// RCS is the random constant spread model of Staniford et al. [15],
// quoted as Eq. (1)'s constant-rate special case in the paper:
//
//	dI/dt = β·I·(V − I)
//
// β is the pairwise infection rate; for a worm scanning the IPv4 space
// at r scans/second, β = r / 2^32 (each scan hits one specific
// susceptible host with probability 2^-32).
type RCS struct {
	Beta float64 // pairwise infection rate
	V    float64 // vulnerable population
	I0   float64 // initially infected
}

// Analytic returns the closed-form logistic solution
//
//	I(t) = I0·V·e^{βVt} / (V + I0·(e^{βVt} − 1)),
//
// used to validate the RK4 integrator and as the deterministic baseline
// curve in the A2 ablation.
func (m RCS) Analytic(t float64) float64 {
	e := math.Exp(m.Beta * m.V * t)
	return m.I0 * m.V * e / (m.V + m.I0*(e-1))
}

// TwoFactor is the two-factor worm model of Zou, Gong and Towsley [19],
// Eq. (1) of the paper, as the A2 ablation runs it: RCS plus removal of
// infectious hosts at rate γ (patching). The model's other two factors,
// immunization of susceptibles (μ) and a congestion-dependent infection
// rate (η), are held at μ = η = 0, where they contribute nothing.
//
// State vector: [I, R] where I = infectious and R = removed from the
// infectious population. Susceptibles are S = V − I − R.
type TwoFactor struct {
	Beta0 float64 // pairwise infection rate
	Gamma float64 // removal rate of infectious hosts
	V     float64
	I0    float64
}

// validate reports whether the parameters are usable.
func (m TwoFactor) validate() error {
	switch {
	case m.Beta0 < 0 || math.IsNaN(m.Beta0):
		return fmt.Errorf("epidemic: two-factor beta0 %v invalid", m.Beta0)
	case m.Gamma < 0:
		return fmt.Errorf("epidemic: two-factor removal rate γ=%v must be >= 0", m.Gamma)
	case m.V <= 0:
		return fmt.Errorf("epidemic: two-factor population %v invalid", m.V)
	case m.I0 <= 0 || m.I0 > m.V:
		return fmt.Errorf("epidemic: two-factor I0 %v outside (0, V]", m.I0)
	}
	return nil
}

// derivatives implements the two-dimensional ODE (state = [I, R]).
func (m TwoFactor) derivatives(_ float64, y, dst []float64) {
	i, r := y[0], y[1]
	s := m.V - i - r
	if s < 0 {
		s = 0
	}
	infect := m.Beta0 * s * i
	dst[0] = infect - m.Gamma*i // dI/dt
	dst[1] = m.Gamma * i        // dR/dt
}

// Integrate solves the model on [0, t1] with step h.
func (m TwoFactor) Integrate(t1, h float64, samples int) (Trajectory, error) {
	if err := m.validate(); err != nil {
		return Trajectory{}, err
	}
	return integrate(m.derivatives, []float64{m.I0, 0}, 0, t1, h, samples)
}

// BetaFromScanRate converts a uniform scan rate (scans/second against
// the IPv4 space) into the pairwise infection rate β used by both
// models: each scan hits one given host with probability 2^-32.
func BetaFromScanRate(scansPerSecond float64) float64 {
	return scansPerSecond / (1 << 32)
}

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

// validate reports whether the parameters are usable.
func (m RCS) validate() error {
	switch {
	case m.Beta < 0 || math.IsNaN(m.Beta):
		return fmt.Errorf("epidemic: RCS beta %v invalid", m.Beta)
	case m.V <= 0:
		return fmt.Errorf("epidemic: RCS population %v invalid", m.V)
	case m.I0 <= 0 || m.I0 > m.V:
		return fmt.Errorf("epidemic: RCS I0 %v outside (0, V]", m.I0)
	}
	return nil
}

// derivatives implements the one-dimensional ODE (state = [I]).
func (m RCS) derivatives(_ float64, y, dst []float64) {
	dst[0] = m.Beta * y[0] * (m.V - y[0])
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

// integrate solves the model on [0, t1] with step h, sampling samples+1
// points of I(t).
func (m RCS) integrate(t1, h float64, samples int) (Trajectory, error) {
	if err := m.validate(); err != nil {
		return Trajectory{}, err
	}
	return integrate(m.derivatives, []float64{m.I0}, 0, t1, h, samples)
}

// sir is the classical Kermack–McKendrick compartment model with states
// [S, I, R]:
//
//	dS/dt = −β·S·I
//	dI/dt = β·S·I − γ·I
//	dR/dt = γ·I
//
// γ is the removal (patch/clean-up) rate; with γ = 0 it degenerates to
// RCS.
type sir struct {
	Beta  float64
	Gamma float64
	V     float64 // total population S+I+R
	I0    float64
}

// validate reports whether the parameters are usable.
func (m sir) validate() error {
	switch {
	case m.Beta < 0 || math.IsNaN(m.Beta):
		return fmt.Errorf("epidemic: SIR beta %v invalid", m.Beta)
	case m.Gamma < 0 || math.IsNaN(m.Gamma):
		return fmt.Errorf("epidemic: SIR gamma %v invalid", m.Gamma)
	case m.V <= 0:
		return fmt.Errorf("epidemic: SIR population %v invalid", m.V)
	case m.I0 <= 0 || m.I0 > m.V:
		return fmt.Errorf("epidemic: SIR I0 %v outside (0, V]", m.I0)
	}
	return nil
}

// derivatives implements the three-dimensional ODE (state = [S, I, R]).
func (m sir) derivatives(_ float64, y, dst []float64) {
	s, i := y[0], y[1]
	inf := m.Beta * s * i
	dst[0] = -inf
	dst[1] = inf - m.Gamma*i
	dst[2] = m.Gamma * i
}

// integrate solves the model on [0, t1] with step h.
func (m sir) integrate(t1, h float64, samples int) (Trajectory, error) {
	if err := m.validate(); err != nil {
		return Trajectory{}, err
	}
	y0 := []float64{m.V - m.I0, m.I0, 0}
	return integrate(m.derivatives, y0, 0, t1, h, samples)
}

// TwoFactor is the two-factor worm model of Zou, Gong and Towsley [19],
// Eq. (1) of the paper: it extends RCS with (i) human countermeasures —
// removal of infectious hosts at rate γ and immunization of susceptible
// hosts proportional to the cumulative observed infection — and (ii) a
// congestion-dependent infection rate β(t) = β0·(1 − I/V)^η that decays
// as worm traffic saturates links.
//
// State vector: [I, R, Q, J] where I = infectious, R = removed from the
// infectious population, Q = removed (immunized) from the susceptible
// population, and J = I + R is the cumulative infection count driving
// immunization. Susceptibles are S = V − I − R − Q.
type TwoFactor struct {
	Beta0 float64 // initial pairwise infection rate
	Gamma float64 // removal rate of infectious hosts
	Mu    float64 // immunization pressure on susceptibles
	Eta   float64 // congestion exponent in β(t)
	V     float64
	I0    float64
}

// validate reports whether the parameters are usable.
func (m TwoFactor) validate() error {
	switch {
	case m.Beta0 < 0 || math.IsNaN(m.Beta0):
		return fmt.Errorf("epidemic: two-factor beta0 %v invalid", m.Beta0)
	case m.Gamma < 0 || m.Mu < 0 || m.Eta < 0:
		return fmt.Errorf("epidemic: two-factor rates (γ=%v, μ=%v, η=%v) must be >= 0",
			m.Gamma, m.Mu, m.Eta)
	case m.V <= 0:
		return fmt.Errorf("epidemic: two-factor population %v invalid", m.V)
	case m.I0 <= 0 || m.I0 > m.V:
		return fmt.Errorf("epidemic: two-factor I0 %v outside (0, V]", m.I0)
	}
	return nil
}

// derivatives implements the four-dimensional ODE (state = [I, R, Q, J]).
func (m TwoFactor) derivatives(_ float64, y, dst []float64) {
	i, r, q, j := y[0], y[1], y[2], y[3]
	s := m.V - i - r - q
	if s < 0 {
		s = 0
	}
	frac := 1 - i/m.V
	if frac < 0 {
		frac = 0
	}
	beta := m.Beta0 * math.Pow(frac, m.Eta)
	infect := beta * s * i
	dst[0] = infect - m.Gamma*i // dI/dt
	dst[1] = m.Gamma * i        // dR/dt
	dst[2] = m.Mu * s * j / m.V // dQ/dt (immunization pressure)
	dst[3] = infect             // dJ/dt (cumulative infections)
}

// Integrate solves the model on [0, t1] with step h.
func (m TwoFactor) Integrate(t1, h float64, samples int) (Trajectory, error) {
	if err := m.validate(); err != nil {
		return Trajectory{}, err
	}
	y0 := []float64{m.I0, 0, 0, m.I0}
	return integrate(m.derivatives, y0, 0, t1, h, samples)
}

// BetaFromScanRate converts a uniform scan rate (scans/second against
// the IPv4 space) into the pairwise infection rate β used by all three
// models: each scan hits one given host with probability 2^-32.
func BetaFromScanRate(scansPerSecond float64) float64 {
	return scansPerSecond / (1 << 32)
}

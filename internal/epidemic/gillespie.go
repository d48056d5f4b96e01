package epidemic

import (
	"fmt"
	"math"

	"wormcontain/internal/rng"
)

// stochasticSIR is the "general stochastic epidemic model" the paper's
// related work builds on ([10]: "They found the stochastic epidemic
// model is useful for modeling the early stage of the worm spread"): a
// continuous-time Markov chain with
//
//	infection: (S, I) → (S−1, I+1) at rate β·S·I
//	removal:   I → I−1, R → R+1   at rate γ·I
//
// simulated exactly with the Gillespie (stochastic simulation)
// algorithm. Unlike the deterministic SIR it exhibits early-phase
// variance and genuine extinction, which is precisely why the paper
// models the early phase stochastically.
type stochasticSIR struct {
	Beta  float64 // pairwise infection rate
	Gamma float64 // removal rate per infectious host
	V     int     // total population
	I0    int     // initially infectious
}

// validate reports whether the parameters are usable.
func (m stochasticSIR) validate() error {
	switch {
	case m.Beta < 0 || math.IsNaN(m.Beta):
		return fmt.Errorf("epidemic: stochastic SIR beta %v invalid", m.Beta)
	case m.Gamma < 0 || math.IsNaN(m.Gamma):
		return fmt.Errorf("epidemic: stochastic SIR gamma %v invalid", m.Gamma)
	case m.V < 1:
		return fmt.Errorf("epidemic: stochastic SIR population %d invalid", m.V)
	case m.I0 < 1 || m.I0 > m.V:
		return fmt.Errorf("epidemic: stochastic SIR I0 %d outside [1, V]", m.I0)
	}
	return nil
}

// r0 returns the basic reproduction number β·V/γ (infinite for γ = 0).
func (m stochasticSIR) r0() float64 {
	if m.Gamma == 0 {
		return math.Inf(1)
	}
	return m.Beta * float64(m.V) / m.Gamma
}

// sirPath is one exact sample path: state just after each event.
type sirPath struct {
	Times   []float64
	S, I, R []int
	// Extinct reports the epidemic ended with I = 0 (rather than
	// hitting the time horizon or event cap).
	Extinct bool
}

// final returns the last recorded state.
func (p sirPath) final() (t float64, s, i, r int) {
	n := len(p.Times) - 1
	return p.Times[n], p.S[n], p.I[n], p.R[n]
}

// simulate runs the Gillespie algorithm from t = 0 until the epidemic
// dies out (I = 0), tMax elapses, or maxEvents fire — whichever comes
// first. maxEvents <= 0 selects a generous default.
func (m stochasticSIR) simulate(src rng.Source, tMax float64, maxEvents int) (sirPath, error) {
	if err := m.validate(); err != nil {
		return sirPath{}, err
	}
	if tMax <= 0 || math.IsNaN(tMax) {
		return sirPath{}, fmt.Errorf("epidemic: horizon %v, must be > 0", tMax)
	}
	if maxEvents <= 0 {
		maxEvents = 10_000_000
	}

	s, i, r := m.V-m.I0, m.I0, 0
	t := 0.0
	path := sirPath{
		Times: []float64{0},
		S:     []int{s},
		I:     []int{i},
		R:     []int{r},
	}
	for events := 0; i > 0 && events < maxEvents; events++ {
		infRate := m.Beta * float64(s) * float64(i)
		remRate := m.Gamma * float64(i)
		total := infRate + remRate
		if total <= 0 {
			// No removal process and no susceptibles left: the state is
			// absorbing with I > 0; report the frozen state at tMax.
			t = tMax
			break
		}
		t += rng.Exponential(src, total)
		if t > tMax {
			t = tMax
			break
		}
		if src.Float64()*total < infRate {
			s--
			i++
		} else {
			i--
			r++
		}
		path.Times = append(path.Times, t)
		path.S = append(path.S, s)
		path.I = append(path.I, i)
		path.R = append(path.R, r)
	}
	path.Extinct = i == 0
	// Close the path at the stopping time for interpolation consumers.
	if last := path.Times[len(path.Times)-1]; last < t {
		path.Times = append(path.Times, t)
		path.S = append(path.S, s)
		path.I = append(path.I, i)
		path.R = append(path.R, r)
	}
	return path, nil
}

// infectedAt returns I(t) on the path by step interpolation.
func (p sirPath) infectedAt(t float64) int {
	// Binary search for the last event time <= t.
	lo, hi := 0, len(p.Times)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.Times[mid] <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return p.I[lo]
}

// finalSize runs one epidemic to extinction and returns the total number
// of ever-infected hosts (I0 + final R + any frozen I). It requires
// γ > 0, without which the epidemic cannot end.
func (m stochasticSIR) finalSize(src rng.Source, maxEvents int) (int, error) {
	if m.Gamma <= 0 {
		return 0, fmt.Errorf("epidemic: final size needs gamma > 0")
	}
	path, err := m.simulate(src, math.MaxFloat64/4, maxEvents)
	if err != nil {
		return 0, err
	}
	_, _, i, r := path.final()
	return i + r, nil
}

// extinctionProbEstimate estimates P{minor outbreak} by Monte-Carlo:
// the fraction of runs that die out before infecting more than
// minorCutoff hosts. For the early phase the branching approximation
// predicts (γ/(β·S0))^I0 when R0 > 1.
func (m stochasticSIR) extinctionProbEstimate(seed uint64, runs, minorCutoff int) (float64, error) {
	if err := m.validate(); err != nil {
		return 0, err
	}
	if runs < 1 {
		return 0, fmt.Errorf("epidemic: runs %d, must be >= 1", runs)
	}
	if minorCutoff < m.I0 {
		return 0, fmt.Errorf("epidemic: cutoff %d below I0", minorCutoff)
	}
	minor := 0
	for run := 0; run < runs; run++ {
		src := rng.NewPCG64(seed, uint64(run))
		size, err := m.finalSize(src, 0)
		if err != nil {
			return 0, err
		}
		if size <= minorCutoff {
			minor++
		}
	}
	return float64(minor) / float64(runs), nil
}

// Package epidemic implements the deterministic epidemic models the
// paper positions its stochastic branching process against (Section II):
// the random constant spread (RCS) model of Staniford et al. [15] and
// the two-factor model of Zou et al. [19]. The two-factor model is a
// system of ODEs integrated with a fixed-step fourth-order Runge–Kutta
// scheme; the RCS model has a closed-form logistic solution, which
// also validates the integrator.
//
// The ablation bench A2 runs these against the stochastic simulator to
// demonstrate the paper's core modelling argument: deterministic models
// capture only the mean and cannot express the early-phase variability
// (std ≈ 45 around a mean of 58 for Code Red at M = 10000) or extinction.
package epidemic

import "fmt"

// derivatives computes dy/dt for state y at time t, writing into dst
// (same length as y). Implementations must not retain the slices.
type derivatives func(t float64, y, dst []float64)

// rk4 integrates dy/dt = f from t0 to t1 with fixed step h, starting
// from y0. It returns the state at t1. The final step is shortened to
// land exactly on t1.
func rk4(f derivatives, y0 []float64, t0, t1, h float64) ([]float64, error) {
	if h <= 0 {
		return nil, fmt.Errorf("epidemic: step size %v, must be > 0", h)
	}
	if t1 < t0 {
		return nil, fmt.Errorf("epidemic: t1 = %v before t0 = %v", t1, t0)
	}
	n := len(y0)
	y := append([]float64(nil), y0...)
	k1 := make([]float64, n)
	k2 := make([]float64, n)
	k3 := make([]float64, n)
	k4 := make([]float64, n)
	tmp := make([]float64, n)

	t := t0
	for t < t1 {
		step := h
		if t+step > t1 {
			step = t1 - t
		}
		f(t, y, k1)
		for i := range tmp {
			tmp[i] = y[i] + step/2*k1[i]
		}
		f(t+step/2, tmp, k2)
		for i := range tmp {
			tmp[i] = y[i] + step/2*k2[i]
		}
		f(t+step/2, tmp, k3)
		for i := range tmp {
			tmp[i] = y[i] + step*k3[i]
		}
		f(t+step, tmp, k4)
		for i := range y {
			y[i] += step / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
		}
		t += step
	}
	return y, nil
}

// Trajectory holds a sampled solution: Times[i] maps to States[i], each
// state being a copy of the full state vector.
type Trajectory struct {
	Times  []float64
	States [][]float64
}

// component extracts one state component as a flat series.
func (tr Trajectory) component(idx int) []float64 {
	out := make([]float64, len(tr.States))
	for i, s := range tr.States {
		out[i] = s[idx]
	}
	return out
}

// integrate runs RK4 from t0 to t1 and records the state at samples+1
// evenly spaced instants (including both endpoints).
func integrate(f derivatives, y0 []float64, t0, t1, h float64, samples int) (Trajectory, error) {
	if samples < 1 {
		return Trajectory{}, fmt.Errorf("epidemic: samples = %d, must be >= 1", samples)
	}
	tr := Trajectory{
		Times:  make([]float64, 0, samples+1),
		States: make([][]float64, 0, samples+1),
	}
	y := append([]float64(nil), y0...)
	prev := t0
	for i := 0; i <= samples; i++ {
		target := t0 + (t1-t0)*float64(i)/float64(samples)
		next, err := rk4(f, y, prev, target, h)
		if err != nil {
			return Trajectory{}, err
		}
		y = next
		prev = target
		tr.Times = append(tr.Times, target)
		tr.States = append(tr.States, append([]float64(nil), y...))
	}
	return tr, nil
}

package core

import (
	"fmt"
	"math"

	"wormcontain/internal/dist"
)

// ContainmentTarget expresses an operator's containment requirement in
// the language of Section IV step 1: "choose M based on the probability
// that the total number of infected hosts ... is less than some
// acceptable value".
type ContainmentTarget struct {
	// MaxTotalInfected is the acceptable ceiling L on the total number
	// of hosts ever infected (including the I0 seeds).
	MaxTotalInfected int

	// Confidence is the required probability that the outbreak stays at
	// or below MaxTotalInfected, e.g. 0.99.
	Confidence float64
}

// validate reports whether the target is well-formed.
func (t ContainmentTarget) validate() error {
	if t.MaxTotalInfected < 1 {
		return fmt.Errorf("core: target ceiling %d, must be >= 1", t.MaxTotalInfected)
	}
	if t.Confidence <= 0 || t.Confidence >= 1 {
		return fmt.Errorf("core: confidence %v, must be in (0, 1)", t.Confidence)
	}
	return nil
}

// DesignM returns the largest scan limit M that satisfies the containment
// target for the given scenario (ignoring the scenario's own M field).
// Larger M is strictly better for legitimate users — the paper's central
// argument is that the admissible M is large (thousands) relative to
// normal monthly activity — so the design problem is a maximization.
//
// P{I <= L} is non-increasing in M (larger M ⇒ larger λ ⇒ stochastically
// larger Borel–Tanner total), so binary search applies. The search is
// capped at the extinction threshold ⌊1/p⌋: beyond it even eventual
// die-out is no longer guaranteed.
//
// It returns an error if the target is infeasible even at M = 0, i.e.
// the ceiling is below I0 (the seeds alone exceed it).
func DesignM(w WormModel, target ContainmentTarget) (int, error) {
	if err := w.validate(); err != nil {
		return 0, err
	}
	if err := target.validate(); err != nil {
		return 0, err
	}
	if target.MaxTotalInfected < w.I0 {
		return 0, fmt.Errorf(
			"core: target ceiling %d is below the %d initial infections; no M can meet it",
			target.MaxTotalInfected, w.I0)
	}

	// P{I <= L} >= conf  ⇔  Quantile(conf) <= L. The quantile form stops
	// summing as soon as conf probability mass has accumulated, which
	// stays fast even for near-critical λ where the CDF's support is
	// enormous.
	meets := func(m int) bool {
		trial := w
		trial.M = m
		bt, err := trial.TotalInfections()
		if err != nil {
			return false // λ >= 1: infinite outbreaks possible
		}
		return bt.Quantile(target.Confidence) <= target.MaxTotalInfected
	}

	// The ceiling ⌊1/p⌋ keeps the search inside the guaranteed-extinction
	// regime; the strict-inequality margin avoids λ == 1 exactly.
	hi := int(w.ExtinctionThreshold()) - 1
	if hi < 0 {
		hi = 0
	}
	if !meets(0) {
		// Even a total scan ban fails (cannot happen when ceiling >= I0,
		// but kept for defensive completeness).
		return 0, fmt.Errorf("core: target %+v infeasible for scenario %q", target, w.Name)
	}
	if meets(hi) {
		return hi, nil
	}
	lo := 0 // meets; hi does not
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if meets(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// Report is a human-readable containment design summary for a scenario:
// all the quantities Sections III–IV derive from (V, Ω, M, I0).
type Report struct {
	Scenario            string
	V                   int
	Density             float64
	M                   int
	I0                  int
	Lambda              float64
	ExtinctionThreshold float64
	Guaranteed          bool
	ExtinctionProb      float64
	// MeanTotal and StdTotal describe the Borel–Tanner total-infection
	// distribution; they are NaN when λ >= 1 (uncontained regime).
	MeanTotal float64
	StdTotal  float64
	// Q95 and Q99 are the 95th and 99th percentile outbreak sizes, or -1
	// when λ >= 1.
	Q95 int
	Q99 int
}

// Analyze produces a Report for the scenario.
func Analyze(w WormModel) (Report, error) {
	if err := w.validate(); err != nil {
		return Report{}, err
	}
	r := Report{
		Scenario:            w.Name,
		V:                   w.V,
		Density:             w.Density(),
		M:                   w.M,
		I0:                  w.I0,
		Lambda:              w.Lambda(),
		ExtinctionThreshold: w.ExtinctionThreshold(),
		Guaranteed:          w.GuaranteedExtinction(),
		ExtinctionProb:      w.ExtinctionProbability(),
		MeanTotal:           math.NaN(),
		StdTotal:            math.NaN(),
		Q95:                 -1,
		Q99:                 -1,
	}
	bt, err := w.TotalInfections()
	if err != nil {
		return r, nil // uncontained regime: report carries NaN/-1 markers
	}
	r.MeanTotal = bt.Mean()
	r.StdTotal = math.Sqrt(bt.Var())
	r.Q95 = bt.Quantile(0.95)
	r.Q99 = bt.Quantile(0.99)
	return r, nil
}

// String formats the report as the block printed by cmd/wormsim and the
// quickstart example.
func (r Report) String() string {
	s := fmt.Sprintf(
		"scenario %s: V=%d p=%.3g M=%d I0=%d λ=%.4f threshold(1/p)=%.0f guaranteed-extinction=%v π=%.6f",
		r.Scenario, r.V, r.Density, r.M, r.I0, r.Lambda,
		r.ExtinctionThreshold, r.Guaranteed, r.ExtinctionProb)
	if !math.IsNaN(r.MeanTotal) {
		s += fmt.Sprintf(" E[I]=%.1f σ[I]=%.1f q95=%d q99=%d",
			r.MeanTotal, r.StdTotal, r.Q95, r.Q99)
	}
	return s
}

// BorelTannerFor is a convenience wrapper used by the experiment harness:
// the total-infection law for scenario w at an alternative scan limit m.
func BorelTannerFor(w WormModel, m int) (dist.BorelTanner, error) {
	w.M = m
	return w.TotalInfections()
}

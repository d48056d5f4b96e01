package epidemic

import (
	"fmt"
	"math"
)

// This file estimates epidemic parameters from observed early-phase
// infection curves — the inverse problem behind worm forecasting: the
// monitoring systems of Section II observe I(t) and need β (equivalently
// the scan rate) to predict the outbreak and calibrate countermeasures.

// growthRate estimates the exponential growth rate r of an early-phase
// epidemic from samples of I(t), by least-squares regression of ln I(t)
// on t. In the early phase I(t) ≈ I0·e^{rt} with r = β·V, so the
// returned rate divided by V recovers β. Samples with non-positive
// counts are skipped; at least two usable samples are required.
func growthRate(times, counts []float64) (rate, lnI0 float64, err error) {
	if len(times) != len(counts) {
		return 0, 0, fmt.Errorf("epidemic: %d times vs %d counts", len(times), len(counts))
	}
	var n float64
	var sumT, sumY, sumTT, sumTY float64
	for i := range times {
		if counts[i] <= 0 || math.IsNaN(counts[i]) || math.IsNaN(times[i]) {
			continue
		}
		y := math.Log(counts[i])
		n++
		sumT += times[i]
		sumY += y
		sumTT += times[i] * times[i]
		sumTY += times[i] * y
	}
	if n < 2 {
		return 0, 0, fmt.Errorf("epidemic: growth fit needs >= 2 positive samples, got %.0f", n)
	}
	den := n*sumTT - sumT*sumT
	if den == 0 {
		return 0, 0, fmt.Errorf("epidemic: growth fit is degenerate (all samples at one time)")
	}
	rate = (n*sumTY - sumT*sumY) / den
	lnI0 = (sumY - rate*sumT) / n
	return rate, lnI0, nil
}

// fitRCS recovers the RCS model parameters (β, I0) from observed I(t)
// samples, given the vulnerable population size V. It uses the exact
// logit linearization of the logistic solution:
//
//	ln( I/(V−I) ) = ln( I0/(V−I0) ) + β·V·t
//
// which is linear in t, so ordinary least squares gives β·V (slope) and
// I0 (from the intercept) without iteration. Samples outside (0, V) are
// skipped.
func fitRCS(v float64, times, counts []float64) (RCS, error) {
	if v <= 0 || math.IsNaN(v) {
		return RCS{}, fmt.Errorf("epidemic: population %v invalid", v)
	}
	if len(times) != len(counts) {
		return RCS{}, fmt.Errorf("epidemic: %d times vs %d counts", len(times), len(counts))
	}
	var n, sumT, sumY, sumTT, sumTY float64
	for i := range times {
		c := counts[i]
		if c <= 0 || c >= v || math.IsNaN(c) || math.IsNaN(times[i]) {
			continue
		}
		y := math.Log(c / (v - c))
		n++
		sumT += times[i]
		sumY += y
		sumTT += times[i] * times[i]
		sumTY += times[i] * y
	}
	if n < 2 {
		return RCS{}, fmt.Errorf("epidemic: RCS fit needs >= 2 interior samples, got %.0f", n)
	}
	den := n*sumTT - sumT*sumT
	if den == 0 {
		return RCS{}, fmt.Errorf("epidemic: RCS fit is degenerate (all samples at one time)")
	}
	slope := (n*sumTY - sumT*sumY) / den
	intercept := (sumY - slope*sumT) / n
	if slope <= 0 {
		return RCS{}, fmt.Errorf("epidemic: fitted growth %v not positive; not an epidemic", slope)
	}
	// intercept = ln(I0/(V−I0)) ⇒ I0 = V / (1 + e^{−intercept}).
	i0 := v / (1 + math.Exp(-intercept))
	m := RCS{Beta: slope / v, V: v, I0: i0}
	if err := m.validate(); err != nil {
		return RCS{}, fmt.Errorf("epidemic: fitted model invalid: %w", err)
	}
	return m, nil
}

// impliedScanRate converts a fitted pairwise infection rate β back into
// the worm's uniform scan rate over the IPv4 space (the inverse of
// BetaFromScanRate) — the quantity an analyst reports ("this worm scans
// at N addresses per second").
func impliedScanRate(beta float64) float64 {
	return beta * (1 << 32)
}

package dist

import (
	"math"
	"testing"

	"wormcontain/internal/rng"
)

// Property tests for the paper's two analytic centerpieces: the
// Borel–Tanner total-infection distribution (Section III-C) and the
// PGF extinction recursion (Section III-B, Proposition 1). Each runs
// across a seeded parameter grid so a failure names the exact (λ, I0)
// that broke and the seed that reproduces it.

// TestPropertyBorelTannerMoments checks that Monte-Carlo sampling of
// the total progeny agrees with the closed forms: the mean must match
// I0/(1−λ) within a standard-error band, and the sample variance must
// match the textbook I0·λ/(1−λ)³ — and therefore the paper's printed
// I0/(1−λ)³ only up to the factor λ the paper drops (VarPaper = Var/λ).
func TestPropertyBorelTannerMoments(t *testing.T) {
	const (
		samples = 30000
		seed    = 0xb07e1
	)
	grid := []struct {
		lambda float64
		i0     int
	}{
		{0.30, 1},
		{0.50, 1},
		{0.50, 10},
		{0.70, 5},
		{0.83, 10}, // the paper's own numeric example (Section III-C)
	}
	for stream, g := range grid {
		bt, err := NewBorelTanner(g.lambda, g.i0)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.NewPCG64(seed, uint64(stream))
		var sum, sumSq float64
		for n := 0; n < samples; n++ {
			x := float64(bt.sample(src))
			sum += x
			sumSq += x * x
		}
		mean := sum / samples
		variance := (sumSq - samples*mean*mean) / (samples - 1)

		// Mean: a 5-sigma band on the sample mean around I0/(1−λ).
		se := math.Sqrt(bt.Var() / samples)
		if d := math.Abs(mean - bt.Mean()); d > 5*se {
			t.Errorf("λ=%v I0=%d: sample mean %.4f vs I0/(1−λ) = %.4f (off by %.1f SE)",
				g.lambda, g.i0, mean, bt.Mean(), d/se)
		}
		// Variance: the sampling error of a variance estimate over a
		// skewed distribution is wide, so a 10%% relative band.
		if rel := math.Abs(variance-bt.Var()) / bt.Var(); rel > 0.10 {
			t.Errorf("λ=%v I0=%d: sample variance %.2f vs I0·λ/(1−λ)³ = %.2f (%.1f%% off)",
				g.lambda, g.i0, variance, bt.Var(), 100*rel)
		}
		// The paper's I0/(1−λ)³ differs from the exact variance by
		// exactly the dropped factor λ, so the sample variance matches
		// it only inside a band that absorbs that factor.
		if got := bt.Var() / bt.VarPaper(); math.Abs(got-g.lambda) > 1e-12 {
			t.Errorf("λ=%v: Var/VarPaper = %v, want exactly λ", g.lambda, got)
		}
		paperBand := (1 - g.lambda) + 0.10
		if rel := math.Abs(variance-bt.VarPaper()) / bt.VarPaper(); rel > paperBand {
			t.Errorf("λ=%v I0=%d: sample variance %.2f vs paper's I0/(1−λ)³ = %.2f (%.1f%% off, band %.1f%%)",
				g.lambda, g.i0, variance, bt.VarPaper(), 100*rel, 100*paperBand)
		}
	}
}

// TestPropertyExtinctionIteratesMonotone checks the PGF recursion
// behind Fig. 3 against Proposition 1: the extinction iterates
// P_n = φ_n(0)^I0 must be monotone nondecreasing in n, stay in [0, 1],
// and converge to the fixed point — exactly 1 in the contained regime
// (mean offspring ≤ 1), the PGF's smaller root raised to I0 above it.
func TestPropertyExtinctionIteratesMonotone(t *testing.T) {
	grid := []struct {
		off Offspring
		i0  int
	}{
		{Poisson{Lambda: 0.30}, 1},
		{Poisson{Lambda: 0.84}, 1},  // the paper's λ = M·p example
		{Poisson{Lambda: 0.84}, 10}, // ...with the paper's I0 = 10
		{Poisson{Lambda: 1.00}, 1},  // critical: still certain extinction
		{Poisson{Lambda: 1.50}, 2},
		{Poisson{Lambda: 2.00}, 1},
		{Binomial{N: 10000, P: 0.84 / 10000}, 3},
		{Binomial{N: 10000, P: 1.7 / 10000}, 1},
	}
	const gens = 5000
	for _, g := range grid {
		probs, err := ExtinctionByGeneration(g.off, g.i0, gens)
		if err != nil {
			t.Fatal(err)
		}
		if probs[0] != 0 {
			t.Errorf("mean=%v i0=%d: P_0 = %v, want 0", g.off.mean(), g.i0, probs[0])
		}
		for n := 1; n < len(probs); n++ {
			if probs[n] < probs[n-1] {
				t.Errorf("mean=%v i0=%d: P_%d = %v < P_%d = %v (iterates must be nondecreasing)",
					g.off.mean(), g.i0, n, probs[n], n-1, probs[n-1])
				break
			}
			if probs[n] < 0 || probs[n] > 1 {
				t.Errorf("mean=%v i0=%d: P_%d = %v outside [0, 1]", g.off.mean(), g.i0, n, probs[n])
				break
			}
		}
		limit := ExtinctionProbabilityN(g.off, g.i0)
		last := probs[len(probs)-1]
		if last > limit+1e-12 {
			t.Errorf("mean=%v i0=%d: iterate %v overshot fixed point %v", g.off.mean(), g.i0, last, limit)
		}
		// Criticality (mean exactly 1) converges like 1/n, so only the
		// strictly sub/supercritical cases are checked for arrival.
		if math.Abs(g.off.mean()-1) > 1e-9 && math.Abs(last-limit) > 1e-6 {
			t.Errorf("mean=%v i0=%d: iterate %v did not reach fixed point %v after %d generations",
				g.off.mean(), g.i0, last, limit, gens)
		}
		if g.off.mean() <= 1 && limit != 1 {
			t.Errorf("mean=%v: Proposition 1 violated, extinction probability %v != 1", g.off.mean(), limit)
		}
		if g.off.mean() > 1 && limit >= 1 {
			t.Errorf("mean=%v: supercritical extinction probability %v, want < 1", g.off.mean(), limit)
		}
	}
}

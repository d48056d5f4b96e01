package epidemic

import (
	"math"
	"testing"
	"time"

	"wormcontain/internal/rng"
	"wormcontain/internal/sim"
)

func TestGrowthRateExactExponential(t *testing.T) {
	const r, i0 = 0.03, 10.0
	times := make([]float64, 20)
	counts := make([]float64, 20)
	for i := range times {
		times[i] = float64(i) * 10
		counts[i] = i0 * math.Exp(r*times[i])
	}
	rate, lnI0, err := growthRate(times, counts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rate-r) > 1e-12 {
		t.Errorf("rate = %v, want %v", rate, r)
	}
	if math.Abs(math.Exp(lnI0)-i0) > 1e-9 {
		t.Errorf("I0 = %v, want %v", math.Exp(lnI0), i0)
	}
}

func TestGrowthRateNoisyRecovery(t *testing.T) {
	src := rng.NewPCG64(1, 0)
	const r = 0.05
	times := make([]float64, 100)
	counts := make([]float64, 100)
	for i := range times {
		times[i] = float64(i)
		noise := 1 + 0.1*(2*src.Float64()-1)
		counts[i] = 5 * math.Exp(r*times[i]) * noise
	}
	rate, _, err := growthRate(times, counts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rate-r) > 0.003 {
		t.Errorf("rate = %v, want ≈%v", rate, r)
	}
}

func TestGrowthRateErrors(t *testing.T) {
	if _, _, err := growthRate([]float64{1}, []float64{2, 3}); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, _, err := growthRate([]float64{1, 2}, []float64{0, -1}); err == nil {
		t.Error("expected error for no positive samples")
	}
	if _, _, err := growthRate([]float64{5, 5}, []float64{1, 2}); err == nil {
		t.Error("expected degenerate-time error")
	}
}

func TestFitRCSRecoversParameters(t *testing.T) {
	// Generate the exact logistic, fit it back.
	truth := RCS{Beta: BetaFromScanRate(6), V: 360000, I0: 10}
	times := make([]float64, 30)
	counts := make([]float64, 30)
	for i := range times {
		times[i] = float64(i) * 600 // ten-minute samples over 5 hours
		counts[i] = truth.Analytic(times[i])
	}
	fit, err := fitRCS(truth.V, times, counts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Beta-truth.Beta) > 1e-9*truth.Beta {
		t.Errorf("beta = %v, want %v", fit.Beta, truth.Beta)
	}
	if math.Abs(fit.I0-truth.I0) > 1e-6*truth.I0 {
		t.Errorf("I0 = %v, want %v", fit.I0, truth.I0)
	}
	// The analyst-facing number: implied scan rate ≈ 6/s.
	if rate := impliedScanRate(fit.Beta); math.Abs(rate-6) > 1e-6 {
		t.Errorf("implied scan rate = %v, want 6", rate)
	}
}

func TestFitRCSFromStochasticRun(t *testing.T) {
	// End-to-end inverse problem: simulate an uncontained worm, observe
	// its infected curve, recover the scan rate within Monte-Carlo
	// error.
	const scanRate = 6.0
	out, err := sim.Run(sim.Config{
		V:           360000,
		I0:          10,
		ScanRate:    scanRate,
		Horizon:     150 * time.Minute,
		MaxInfected: 20000,
		Seed:        77,
		RecordPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var times, counts []float64
	for m := 0; m <= int(out.EndTime.Minutes()); m += 5 {
		times = append(times, float64(m)*60)
		counts = append(counts, out.InfectedSeries.At(time.Duration(m)*time.Minute))
	}
	fit, err := fitRCS(360000, times, counts)
	if err != nil {
		t.Fatal(err)
	}
	got := impliedScanRate(fit.Beta)
	if got < 3 || got > 9 {
		t.Errorf("implied scan rate %v, want ≈6 (single-run noise allowed)", got)
	}
}

func TestFitRCSErrors(t *testing.T) {
	if _, err := fitRCS(0, []float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("expected error for V = 0")
	}
	if _, err := fitRCS(100, []float64{1}, []float64{1, 2}); err == nil {
		t.Error("expected length-mismatch error")
	}
	// Decaying counts: no epidemic.
	if _, err := fitRCS(100, []float64{0, 1, 2}, []float64{50, 20, 5}); err == nil {
		t.Error("expected error for negative growth")
	}
	// All samples at the boundary.
	if _, err := fitRCS(100, []float64{0, 1}, []float64{0, 100}); err == nil {
		t.Error("expected error for no interior samples")
	}
}

func TestImpliedScanRateInverse(t *testing.T) {
	for _, rate := range []float64{0.5, 6, 4000} {
		got := impliedScanRate(BetaFromScanRate(rate))
		if math.Abs(got-rate) > 1e-9*rate {
			t.Errorf("round trip %v -> %v", rate, got)
		}
	}
}

package epidemic

import (
	"math"
	"testing"
)

func TestRK4ExponentialDecay(t *testing.T) {
	// dy/dt = −y, y(0) = 1 ⇒ y(t) = e^{−t}.
	f := func(_ float64, y, dst []float64) { dst[0] = -y[0] }
	y, err := rk4(f, []float64{1}, 0, 5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-5)
	if math.Abs(y[0]-want) > 1e-8 {
		t.Errorf("y(5) = %v, want %v", y[0], want)
	}
}

func TestRK4HarmonicOscillator(t *testing.T) {
	// y'' = −y as a system: y0' = y1, y1' = −y0. y(0)=1, y'(0)=0 ⇒ cos.
	f := func(_ float64, y, dst []float64) {
		dst[0] = y[1]
		dst[1] = -y[0]
	}
	y, err := rk4(f, []float64{1, 0}, 0, 2*math.Pi, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-1) > 1e-8 || math.Abs(y[1]) > 1e-8 {
		t.Errorf("one period: y = %v, want [1, 0]", y)
	}
}

func TestRK4PartialFinalStep(t *testing.T) {
	// Integrating to a horizon that is not a multiple of h must land
	// exactly on the horizon.
	f := func(_ float64, y, dst []float64) { dst[0] = 1 } // y = t
	y, err := rk4(f, []float64{0}, 0, 1.05, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-1.05) > 1e-12 {
		t.Errorf("y = %v, want 1.05", y[0])
	}
}

func TestRK4Errors(t *testing.T) {
	f := func(_ float64, y, dst []float64) { dst[0] = 0 }
	if _, err := rk4(f, []float64{0}, 0, 1, 0); err == nil {
		t.Error("expected error for h = 0")
	}
	if _, err := rk4(f, []float64{0}, 1, 0, 0.1); err == nil {
		t.Error("expected error for t1 < t0")
	}
}

func TestIntegrateSampling(t *testing.T) {
	f := func(_ float64, y, dst []float64) { dst[0] = 2 }
	tr, err := integrate(f, []float64{0}, 0, 10, 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Times) != 6 || len(tr.States) != 6 {
		t.Fatalf("samples = %d", len(tr.Times))
	}
	for i, at := range tr.Times {
		want := 2 * at
		if math.Abs(tr.States[i][0]-want) > 1e-9 {
			t.Errorf("state at t=%v: %v, want %v", at, tr.States[i][0], want)
		}
	}
	comp := tr.component(0)
	if len(comp) != 6 || math.Abs(comp[5]-20) > 1e-9 {
		t.Errorf("component = %v", comp)
	}
}

func TestIntegrateValidation(t *testing.T) {
	f := func(_ float64, y, dst []float64) { dst[0] = 0 }
	if _, err := integrate(f, []float64{0}, 0, 1, 0.1, 0); err == nil {
		t.Error("expected error for samples = 0")
	}
}

func TestRCSMatchesAnalytic(t *testing.T) {
	// Code Red-like parameters: 360k vulnerable, 6 scans/s.
	m := RCS{Beta: BetaFromScanRate(6), V: 360000, I0: 10}
	tr, err := m.integrate(4*3600, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i, at := range tr.Times {
		want := m.Analytic(at)
		got := tr.States[i][0]
		if math.Abs(got-want) > 1e-5*(1+want) {
			t.Errorf("t=%v: RK4 %v vs analytic %v", at, got, want)
		}
	}
}

func TestRCSSigmoidShape(t *testing.T) {
	m := RCS{Beta: BetaFromScanRate(6), V: 360000, I0: 10}
	// Monotone increasing, saturating at V.
	prev := m.Analytic(0)
	if math.Abs(prev-10) > 1e-9 {
		t.Errorf("I(0) = %v, want 10", prev)
	}
	for _, at := range []float64{3600, 7200, 14400, 28800, 86400} {
		cur := m.Analytic(at)
		if cur <= prev {
			t.Fatalf("I not increasing at t=%v", at)
		}
		if cur > m.V {
			t.Fatalf("I exceeds V at t=%v", at)
		}
		prev = cur
	}
	if final := m.Analytic(1e7); math.Abs(final-m.V) > 1 {
		t.Errorf("I(∞) = %v, want ≈V", final)
	}
}

func TestRCSValidation(t *testing.T) {
	bad := []RCS{
		{Beta: -1, V: 100, I0: 1},
		{Beta: 1, V: 0, I0: 1},
		{Beta: 1, V: 100, I0: 0},
		{Beta: 1, V: 100, I0: 200},
		{Beta: math.NaN(), V: 100, I0: 1},
	}
	for i, m := range bad {
		if err := m.validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestSIRConservation(t *testing.T) {
	m := sir{Beta: BetaFromScanRate(6), Gamma: 1e-4, V: 360000, I0: 10}
	tr, err := m.integrate(6*3600, 1, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range tr.States {
		total := st[0] + st[1] + st[2]
		if math.Abs(total-m.V) > 1e-6*m.V {
			t.Errorf("t=%v: S+I+R = %v, want %v", tr.Times[i], total, m.V)
		}
		for c, v := range st {
			if v < -1e-6 {
				t.Errorf("t=%v: component %d negative: %v", tr.Times[i], c, v)
			}
		}
	}
}

func TestSIRInfectionPeaksAndDeclines(t *testing.T) {
	// With a substantial removal rate the infectious curve must rise
	// then fall.
	m := sir{Beta: BetaFromScanRate(20), Gamma: 5e-4, V: 360000, I0: 10}
	tr, err := m.integrate(12*3600, 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	infectious := tr.component(1)
	peakIdx := 0
	for i, v := range infectious {
		if v > infectious[peakIdx] {
			peakIdx = i
		}
	}
	if peakIdx == 0 || peakIdx == len(infectious)-1 {
		t.Fatalf("no interior peak: peak at index %d of %d", peakIdx, len(infectious))
	}
	if final := infectious[len(infectious)-1]; final >= infectious[peakIdx]/2 {
		t.Errorf("infectious did not decline: peak %v, final %v", infectious[peakIdx], final)
	}
}

func TestSIRGammaZeroMatchesRCS(t *testing.T) {
	sir := sir{Beta: BetaFromScanRate(6), Gamma: 0, V: 360000, I0: 10}
	rcs := RCS{Beta: BetaFromScanRate(6), V: 360000, I0: 10}
	tr, err := sir.integrate(4*3600, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, at := range tr.Times {
		want := rcs.Analytic(at)
		got := tr.States[i][1]
		if math.Abs(got-want) > 1e-4*(1+want) {
			t.Errorf("t=%v: SIR(γ=0) I = %v, RCS %v", at, got, want)
		}
	}
}

func TestSIRValidation(t *testing.T) {
	if err := (sir{Beta: 1, Gamma: -1, V: 10, I0: 1}).validate(); err == nil {
		t.Error("expected error for negative gamma")
	}
}

func TestTwoFactorReducesToRCS(t *testing.T) {
	// γ = μ = η = 0 collapses the two-factor model to RCS.
	tf := TwoFactor{Beta0: BetaFromScanRate(6), V: 360000, I0: 10}
	rcs := RCS{Beta: BetaFromScanRate(6), V: 360000, I0: 10}
	tr, err := tf.Integrate(4*3600, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, at := range tr.Times {
		want := rcs.Analytic(at)
		got := tr.States[i][0]
		if math.Abs(got-want) > 1e-4*(1+want) {
			t.Errorf("t=%v: two-factor %v vs RCS %v", at, got, want)
		}
	}
}

func TestTwoFactorCountermeasuresSlowSpread(t *testing.T) {
	base := TwoFactor{Beta0: BetaFromScanRate(6), V: 360000, I0: 10}
	damped := TwoFactor{
		Beta0: BetaFromScanRate(6), Gamma: 2e-4, Mu: 1e-3, Eta: 3,
		V: 360000, I0: 10,
	}
	horizon := 8 * 3600.0
	trBase, err := base.Integrate(horizon, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	trDamped, err := damped.Integrate(horizon, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	iBase := trBase.component(0)
	iDamped := trDamped.component(0)
	if iDamped[4] >= iBase[4] {
		t.Errorf("countermeasures did not slow the worm: %v vs %v", iDamped[4], iBase[4])
	}
}

func TestTwoFactorStateSanity(t *testing.T) {
	m := TwoFactor{
		Beta0: BetaFromScanRate(10), Gamma: 3e-4, Mu: 2e-3, Eta: 2,
		V: 360000, I0: 10,
	}
	tr, err := m.Integrate(24*3600, 1, 48)
	if err != nil {
		t.Fatal(err)
	}
	prevR, prevQ, prevJ := -1.0, -1.0, -1.0
	for i, st := range tr.States {
		infectious, removed, immunized, cumulative := st[0], st[1], st[2], st[3]
		if infectious < -1e-6 || removed < -1e-6 || immunized < -1e-6 {
			t.Fatalf("t=%v: negative compartment %v", tr.Times[i], st)
		}
		if removed < prevR-1e-6 || immunized < prevQ-1e-6 || cumulative < prevJ-1e-6 {
			t.Fatalf("t=%v: monotone compartment decreased", tr.Times[i])
		}
		if infectious+removed+immunized > m.V*(1+1e-9) {
			t.Fatalf("t=%v: compartments exceed population", tr.Times[i])
		}
		prevR, prevQ, prevJ = removed, immunized, cumulative
	}
}

func TestTwoFactorValidation(t *testing.T) {
	if err := (TwoFactor{Beta0: 1, Eta: -1, V: 10, I0: 1}).validate(); err == nil {
		t.Error("expected error for negative eta")
	}
}

func TestBetaFromScanRate(t *testing.T) {
	// 2^32 scans per second would infect any given host at rate 1.
	if got := BetaFromScanRate(1 << 32); math.Abs(got-1) > 1e-15 {
		t.Errorf("beta = %v, want 1", got)
	}
	if got := BetaFromScanRate(0); got != 0 {
		t.Errorf("beta = %v, want 0", got)
	}
}

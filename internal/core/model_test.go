package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewWormModelValidation(t *testing.T) {
	cases := []struct {
		name    string
		v       int
		space   float64
		m, i0   int
		wantErr bool
	}{
		{"valid code red", 360000, IPv4SpaceSize, 10000, 10, false},
		{"zero V", 0, IPv4SpaceSize, 10000, 10, true},
		{"zero space", 100, 0, 100, 1, true},
		{"negative space", 100, -5, 100, 1, true},
		{"nan space", 100, math.NaN(), 100, 1, true},
		{"V over space", 100, 50, 100, 1, true},
		{"negative M", 100, 1000, -1, 1, true},
		{"zero M ok", 100, 1000, 0, 1, false},
		{"zero I0", 100, 1000, 10, 0, true},
	}
	for _, c := range cases {
		_, err := NewWormModel(c.name, c.v, c.space, c.m, c.i0)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", c.name, err, c.wantErr)
		}
	}
}

func TestDensityPaperValues(t *testing.T) {
	// Section III: Code Red p ≈ 8.5e-5 ("the vulnerability density p is
	// only 8.5×10^-5"; more precisely 8.38e-5).
	cr := CodeRed(10000, 10)
	if p := cr.Density(); math.Abs(p-8.381903e-5) > 1e-10 {
		t.Errorf("Code Red density = %v, want ≈8.38e-5", p)
	}
	sl := SQLSlammer(10000, 10)
	if p := sl.Density(); math.Abs(p-2.7939677e-5) > 1e-10 {
		t.Errorf("Slammer density = %v, want ≈2.79e-5", p)
	}
}

func TestExtinctionThresholdPaperValues(t *testing.T) {
	// Proposition 1 discussion: "if the total scans per host is less
	// than 11,930 and 35,791 respectively" for Code Red and Slammer.
	cr := CodeRed(0, 1)
	if th := cr.ExtinctionThreshold(); int(th) != 11930 {
		t.Errorf("Code Red 1/p = %v, paper reports 11930", th)
	}
	sl := SQLSlammer(0, 1)
	if th := sl.ExtinctionThreshold(); int(th) != 35791 {
		t.Errorf("Slammer 1/p = %v, paper reports 35791", th)
	}
}

func TestLambdaPaperValue(t *testing.T) {
	// Section V: Code Red with M = 10000 has λ = Mp = 0.83.
	cr := CodeRed(10000, 10)
	if l := cr.Lambda(); math.Abs(l-0.838) > 0.001 {
		t.Errorf("λ = %v, paper reports 0.83", l)
	}
}

func TestGuaranteedExtinctionBoundary(t *testing.T) {
	cr := CodeRed(11930, 1)
	if !cr.GuaranteedExtinction() {
		t.Error("M = 11930 <= 1/p should guarantee extinction for Code Red")
	}
	cr.M = 11931
	if cr.GuaranteedExtinction() {
		t.Error("M = 11931 > 1/p should not guarantee extinction")
	}
}

func TestExtinctionProbabilityRegimes(t *testing.T) {
	sub := CodeRed(10000, 1)
	if pi := sub.ExtinctionProbability(); pi != 1 {
		t.Errorf("subcritical π = %v, want 1", pi)
	}
	super := CodeRed(40000, 1) // λ ≈ 3.35
	pi := super.ExtinctionProbability()
	if pi <= 0 || pi >= 1 {
		t.Errorf("supercritical π = %v, want in (0, 1)", pi)
	}
	// Ten initial hosts make survival much more likely.
	super10 := CodeRed(40000, 10)
	pi10 := super10.ExtinctionProbability()
	if math.Abs(pi10-math.Pow(pi, 10)) > 1e-9 {
		t.Errorf("π(I0=10) = %v, want π^10 = %v", pi10, math.Pow(pi, 10))
	}
}

func TestExtinctionByGenerationDelegation(t *testing.T) {
	cr := CodeRed(5000, 1)
	probs, err := cr.ExtinctionByGeneration(20)
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 21 {
		t.Fatalf("got %d entries, want 21", len(probs))
	}
	if probs[0] != 0 {
		t.Errorf("P_0 = %v, want 0", probs[0])
	}
	if probs[20] < 0.99 {
		t.Errorf("P_20 = %v for M=5000; Fig. 3 shows near-certain extinction", probs[20])
	}
}

func TestTotalInfectionsContainedRegime(t *testing.T) {
	cr := CodeRed(10000, 10)
	bt, err := cr.TotalInfections()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bt.Lambda-cr.Lambda()) > 1e-12 || bt.I0 != 10 {
		t.Errorf("Borel–Tanner params (%v, %d) do not match model", bt.Lambda, bt.I0)
	}
	// Section V reports E(I) = 58 using the rounded λ = 0.83; with the
	// exact λ = 0.8382 the mean is 61.8. Assert the exact value here;
	// the paper-rounded variant is checked in package dist.
	if math.Abs(bt.Mean()-61.8) > 0.1 {
		t.Errorf("E[I] = %v, want 61.8 (paper's 58 uses rounded λ)", bt.Mean())
	}
}

func TestTotalInfectionsUncontainedRegime(t *testing.T) {
	cr := CodeRed(20000, 10) // λ > 1
	if _, err := cr.TotalInfections(); err == nil {
		t.Error("expected error for λ >= 1")
	}
}

func TestOffspringDistributions(t *testing.T) {
	cr := CodeRed(10000, 10)
	b := cr.offspring()
	if b.N != 10000 || math.Abs(b.P-cr.Density()) > 1e-15 {
		t.Errorf("offspring params (%d, %v) mismatch", b.N, b.P)
	}
}

// Property: for any valid model, guaranteed extinction iff λ <= 1.
func TestQuickGuaranteedExtinctionIffLambdaLEOne(t *testing.T) {
	f := func(vRaw uint32, mRaw uint16) bool {
		v := int(vRaw%1000000) + 1
		m := int(mRaw)
		w := WormModel{Name: "q", V: v, SpaceSize: IPv4SpaceSize, M: m, I0: 1}
		return w.GuaranteedExtinction() == (w.Lambda() <= 1+1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

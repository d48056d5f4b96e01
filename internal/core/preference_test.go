package core

import (
	"fmt"
	"math"
	"testing"
)

func TestScanRegionValidation(t *testing.T) {
	bad := []scanRegion{
		{Weight: -0.1, SpaceSize: 10, Vulnerable: 1},
		{Weight: 1.1, SpaceSize: 10, Vulnerable: 1},
		{Weight: 0.5, SpaceSize: 0, Vulnerable: 1},
		{Weight: 0.5, SpaceSize: 10, Vulnerable: -1},
		{Weight: 0.5, SpaceSize: 10, Vulnerable: 11},
		{Weight: math.NaN(), SpaceSize: 10, Vulnerable: 1},
	}
	for i, r := range bad {
		m := scanMixture{Regions: []scanRegion{r}}
		if err := m.validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestScanMixtureWeightSum(t *testing.T) {
	m := scanMixture{Regions: []scanRegion{
		{Weight: 0.5, SpaceSize: 100, Vulnerable: 1},
		{Weight: 0.4, SpaceSize: 100, Vulnerable: 1},
	}}
	if err := m.validate(); err == nil {
		t.Error("expected error for weights summing to 0.9")
	}
	if err := (scanMixture{}).validate(); err == nil {
		t.Error("expected error for empty mixture")
	}
}

func TestUniformMixtureMatchesWormModel(t *testing.T) {
	// A single uniform region reproduces the plain model's density.
	m := scanMixture{Regions: []scanRegion{
		{Name: "uniform", Weight: 1, SpaceSize: IPv4SpaceSize, Vulnerable: 360000},
	}}
	p, err := m.hitDensity()
	if err != nil {
		t.Fatal(err)
	}
	want := CodeRed(0, 1).Density()
	if math.Abs(p-want) > 1e-15 {
		t.Errorf("density %v, want %v", p, want)
	}
	th, err := m.generalizedThreshold()
	if err != nil {
		t.Fatal(err)
	}
	if int(th) != 11930 {
		t.Errorf("threshold %v, want 11930", th)
	}
}

func TestA3MixtureDensity(t *testing.T) {
	// The A3 ablation scenario: 5000 vulnerable hosts all inside the
	// scanner's /8, Code Red II weights, none specifically in the /16.
	m := scanMixture{Regions: []scanRegion{
		{Name: "own /8", Weight: 0.5, SpaceSize: 1 << 24, Vulnerable: 5000},
		{Name: "own /16", Weight: 0.375, SpaceSize: 1 << 24, Vulnerable: 5000},
		{Name: "uniform", Weight: 0.125, SpaceSize: 1 << 32, Vulnerable: 5000},
	}}
	// 0.875 · 5000/2^24 + 0.125 · 5000/2^32.
	p, err := m.hitDensity()
	if err != nil {
		t.Fatal(err)
	}
	want := 0.875*5000/float64(1<<24) + 0.125*5000/float64(1<<32)
	if math.Abs(p-want) > 1e-15 {
		t.Errorf("density %v, want %v", p, want)
	}
	// At M = 3000 the effective λ ≈ 0.783 quoted in the A3 notes.
	if lam := 3000 * p; math.Abs(lam-0.783) > 0.01 {
		t.Errorf("λ = %v, A3 reports ≈0.783", lam)
	}
}

func TestGeneralizedThresholdShrinksUnderPreference(t *testing.T) {
	uniform := scanMixture{Regions: []scanRegion{
		{Weight: 1, SpaceSize: IPv4SpaceSize, Vulnerable: 360000},
	}}
	// Same global population, but 10% of it sits in the scanner's /8
	// and the scanner favors that /8 heavily.
	pref := scanMixture{Regions: []scanRegion{
		{Weight: 0.875, SpaceSize: 1 << 24, Vulnerable: 36000},
		{Weight: 0.125, SpaceSize: IPv4SpaceSize, Vulnerable: 360000},
	}}
	thU, err := uniform.generalizedThreshold()
	if err != nil {
		t.Fatal(err)
	}
	thP, err := pref.generalizedThreshold()
	if err != nil {
		t.Fatal(err)
	}
	if thP >= thU {
		t.Errorf("preference threshold %v should be far below uniform %v", thP, thU)
	}
	if thP > 1000 {
		t.Errorf("threshold %v; dense-region preference should force small M", thP)
	}
}

func TestGeneralizedThresholdNoVulnerable(t *testing.T) {
	m := scanMixture{Regions: []scanRegion{
		{Weight: 1, SpaceSize: 1000, Vulnerable: 0},
	}}
	th, err := m.generalizedThreshold()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(th, 1) {
		t.Errorf("threshold %v, want +Inf when nothing is hittable", th)
	}
}

func TestPreferenceWormModelPipeline(t *testing.T) {
	// The full Section III pipeline applied to a preference worm.
	mix := codeRedIIMixture(5000, 200, 360000)
	w, err := preferenceWormModel("CRII-style", mix, 2000, 10)
	if err != nil {
		t.Fatal(err)
	}
	p, err := mix.hitDensity()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w.Density()-p) > 1e-12*p {
		t.Errorf("model density %v, want %v", w.Density(), p)
	}
	// λ must be w.M·p_eff; containment analysis flows through.
	if math.Abs(w.Lambda()-2000*p) > 1e-9 {
		t.Errorf("λ = %v", w.Lambda())
	}
	if w.Lambda() < 1 {
		bt, err := w.TotalInfections()
		if err != nil {
			t.Fatal(err)
		}
		if bt.Mean() <= float64(w.I0) {
			t.Errorf("outbreak mean %v must exceed I0", bt.Mean())
		}
	}
}

func TestPreferenceWormModelRejectsZeroDensity(t *testing.T) {
	mix := scanMixture{Regions: []scanRegion{
		{Weight: 1, SpaceSize: 100, Vulnerable: 0},
	}}
	if _, err := preferenceWormModel("dud", mix, 100, 1); err == nil {
		t.Error("expected error for zero hit density")
	}
}

func TestCodeRedIIMixtureShape(t *testing.T) {
	mix := codeRedIIMixture(1000, 50, 360000)
	if err := mix.validate(); err != nil {
		t.Fatal(err)
	}
	if len(mix.Regions) != 3 {
		t.Fatalf("regions = %d", len(mix.Regions))
	}
	sum := 0.0
	for _, r := range mix.Regions {
		sum += r.Weight
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum to %v", sum)
	}
}

// Example_scanMixture extends Proposition 1 to a preference-scanning worm
// (the paper's future-work direction): the generalized threshold is
// 1/p_effective.
func Example_scanMixture() {
	// 5000 vulnerable hosts, all inside the scanner's /8; Code Red II
	// scan weights.
	mix := scanMixture{Regions: []scanRegion{
		{Name: "own /8", Weight: 0.875, SpaceSize: 1 << 24, Vulnerable: 5000},
		{Name: "uniform", Weight: 0.125, SpaceSize: 1 << 32, Vulnerable: 5000},
	}}
	th, err := mix.generalizedThreshold()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("preference-scan threshold = %.0f scans per cycle\n", th)
	// Output:
	// preference-scan threshold = 3833 scans per cycle
}

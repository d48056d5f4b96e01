package core

import (
	"math"
	"strings"
	"testing"
)

func TestContainmentTargetValidation(t *testing.T) {
	cases := []struct {
		target  ContainmentTarget
		wantErr bool
	}{
		{ContainmentTarget{MaxTotalInfected: 100, Confidence: 0.99}, false},
		{ContainmentTarget{MaxTotalInfected: 0, Confidence: 0.99}, true},
		{ContainmentTarget{MaxTotalInfected: 100, Confidence: 0}, true},
		{ContainmentTarget{MaxTotalInfected: 100, Confidence: 1}, true},
	}
	for _, c := range cases {
		if err := c.target.validate(); (err != nil) != c.wantErr {
			t.Errorf("%+v: err = %v, wantErr = %v", c.target, err, c.wantErr)
		}
	}
}

func TestDesignMMeetsTarget(t *testing.T) {
	w := CodeRed(0, 10)
	target := ContainmentTarget{MaxTotalInfected: 150, Confidence: 0.95}
	m, err := DesignM(w, target)
	if err != nil {
		t.Fatal(err)
	}
	// The chosen M must meet the target...
	bt, err := BorelTannerFor(w, m)
	if err != nil {
		t.Fatal(err)
	}
	if bt.CDF(150) < 0.95 {
		t.Errorf("M = %d: P{I<=150} = %v < 0.95", m, bt.CDF(150))
	}
	// ...and be maximal: M+1 must fail (or be out of the safe regime).
	btNext, err := BorelTannerFor(w, m+1)
	if err == nil && btNext.CDF(150) >= 0.95 {
		t.Errorf("M = %d is not maximal: M+1 also meets the target", m)
	}
	// Fig. 8 reads P{I <= 150} ≈ 0.95 at M = 10000, so the designed M
	// should land near 10000.
	if m < 9000 || m > 11000 {
		t.Errorf("designed M = %d, expected near 10000 per Fig. 8", m)
	}
}

func TestDesignMMonotoneInCeiling(t *testing.T) {
	// A looser ceiling can only admit a larger (or equal) M.
	w := SQLSlammer(0, 10)
	prev := -1
	for _, ceiling := range []int{12, 20, 50, 200, 1000} {
		m, err := DesignM(w, ContainmentTarget{MaxTotalInfected: ceiling, Confidence: 0.95})
		if err != nil {
			t.Fatalf("ceiling %d: %v", ceiling, err)
		}
		if m < prev {
			t.Fatalf("ceiling %d: M = %d decreased from %d", ceiling, m, prev)
		}
		prev = m
	}
}

func TestDesignMInfeasible(t *testing.T) {
	w := CodeRed(0, 10)
	if _, err := DesignM(w, ContainmentTarget{MaxTotalInfected: 5, Confidence: 0.9}); err == nil {
		t.Error("ceiling below I0 must be infeasible")
	}
}

func TestDesignMStaysBelowExtinctionThreshold(t *testing.T) {
	// With an enormous ceiling and weak confidence, the design must
	// still cap at the guaranteed-extinction boundary.
	w := CodeRed(0, 1)
	m, err := DesignM(w, ContainmentTarget{MaxTotalInfected: 1 << 30, Confidence: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if float64(m) >= w.ExtinctionThreshold() {
		t.Errorf("designed M = %d reaches the extinction threshold %v", m, w.ExtinctionThreshold())
	}
}

func TestAnalyzeContained(t *testing.T) {
	r, err := Analyze(CodeRed(10000, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Guaranteed || r.ExtinctionProb != 1 {
		t.Error("Code Red at M=10000 is in the guaranteed regime")
	}
	if math.IsNaN(r.MeanTotal) || math.Abs(r.MeanTotal-61.8) > 0.1 {
		t.Errorf("MeanTotal = %v, want 61.8 (exact λ)", r.MeanTotal)
	}
	if r.Q95 <= 0 || r.Q99 < r.Q95 {
		t.Errorf("quantiles q95=%d q99=%d inconsistent", r.Q95, r.Q99)
	}
	s := r.String()
	for _, want := range []string{"Code Red", "λ=0.83", "E[I]="} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
}

func TestAnalyzeUncontained(t *testing.T) {
	r, err := Analyze(CodeRed(30000, 10)) // λ ≈ 2.5
	if err != nil {
		t.Fatal(err)
	}
	if r.Guaranteed {
		t.Error("λ > 1 cannot be guaranteed")
	}
	if !math.IsNaN(r.MeanTotal) || r.Q95 != -1 {
		t.Error("uncontained report should carry NaN/-1 markers")
	}
	if r.ExtinctionProb >= 1 {
		t.Errorf("uncontained π = %v, want < 1", r.ExtinctionProb)
	}
	if strings.Contains(r.String(), "E[I]=") {
		t.Error("uncontained report should omit total-infection stats")
	}
}

func TestAnalyzeRejectsInvalid(t *testing.T) {
	if _, err := Analyze(WormModel{V: 0, SpaceSize: 1, M: 1, I0: 1}); err == nil {
		t.Error("expected validation error")
	}
}

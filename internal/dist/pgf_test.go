package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExtinctionByGenerationValidation(t *testing.T) {
	b := Binomial{N: 100, P: 0.001}
	if _, err := ExtinctionByGeneration(b, 0, 10); err == nil {
		t.Error("expected error for i0 = 0")
	}
	if _, err := ExtinctionByGeneration(b, 1, -1); err == nil {
		t.Error("expected error for gens < 0")
	}
}

func TestExtinctionByGenerationMonotone(t *testing.T) {
	// P_n is non-decreasing in n (Section III-B).
	b := Binomial{N: 10000, P: codeRedP()}
	probs, err := ExtinctionByGeneration(b, 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	if probs[0] != 0 {
		t.Errorf("P_0 = %v, want 0", probs[0])
	}
	for n := 1; n < len(probs); n++ {
		if probs[n] < probs[n-1]-1e-15 {
			t.Fatalf("P_n decreased at n = %d: %v < %v", n, probs[n], probs[n-1])
		}
		if probs[n] < 0 || probs[n] > 1 {
			t.Fatalf("P_%d = %v out of [0,1]", n, probs[n])
		}
	}
}

func TestExtinctionSubcriticalApproachesOne(t *testing.T) {
	// Fig. 3 regime: all three M values are below 1/p, so P_n → 1.
	for _, m := range []int{5000, 7500, 10000} {
		b := Binomial{N: m, P: codeRedP()}
		probs, err := ExtinctionByGeneration(b, 1, 60)
		if err != nil {
			t.Fatal(err)
		}
		if last := probs[len(probs)-1]; last < 0.999 {
			t.Errorf("M = %d: P_60 = %v, want → 1", m, last)
		}
	}
}

func TestExtinctionSmallerMDiesFaster(t *testing.T) {
	// Fig. 3's visible ordering: at every generation, the smaller M has
	// the larger extinction probability.
	p := codeRedP()
	p5, _ := ExtinctionByGeneration(Binomial{N: 5000, P: p}, 1, 20)
	p75, _ := ExtinctionByGeneration(Binomial{N: 7500, P: p}, 1, 20)
	p10, _ := ExtinctionByGeneration(Binomial{N: 10000, P: p}, 1, 20)
	for n := 1; n <= 20; n++ {
		if !(p5[n] >= p75[n] && p75[n] >= p10[n]) {
			t.Fatalf("generation %d: ordering violated: %v, %v, %v",
				n, p5[n], p75[n], p10[n])
		}
	}
}

func TestExtinctionMultipleInitialHosts(t *testing.T) {
	// With i0 hosts the extinction probability is the single-lineage
	// value raised to i0, hence smaller.
	b := Binomial{N: 10000, P: codeRedP()}
	p1, _ := ExtinctionByGeneration(b, 1, 10)
	p10, _ := ExtinctionByGeneration(b, 10, 10)
	for n := 1; n <= 10; n++ {
		want := math.Pow(p1[n], 10)
		if math.Abs(p10[n]-want) > 1e-12 {
			t.Fatalf("generation %d: P(i0=10) = %v, want %v", n, p10[n], want)
		}
	}
}

func TestExtinctionProbabilityProposition1(t *testing.T) {
	// Proposition 1: π = 1 iff M <= 1/p.
	p := codeRedP()
	threshold := int(1 / p) // 11930 for Code Red

	sub := Binomial{N: threshold, P: p}
	if pi := extinctionProbability(sub); pi != 1 {
		t.Errorf("M = 1/p: π = %v, want exactly 1", pi)
	}
	super := Binomial{N: 3 * threshold, P: p} // λ ≈ 3
	pi := extinctionProbability(super)
	if pi >= 1 || pi <= 0 {
		t.Errorf("supercritical π = %v, want in (0, 1)", pi)
	}
	// For Poisson offspring with λ = 3 the extinction probability solves
	// π = e^{3(π−1)}; the root is ≈ 0.059520.
	po := poisson{Lambda: 3}
	piPo := extinctionProbability(po)
	if math.Abs(piPo-0.0595201) > 1e-4 {
		t.Errorf("Poisson(3) extinction = %v, want ≈0.05952", piPo)
	}
}

func TestExtinctionProbabilityFixedPoint(t *testing.T) {
	// π must satisfy π = φ(π) for supercritical processes.
	for _, lambda := range []float64{1.2, 2, 5} {
		po := poisson{Lambda: lambda}
		pi := extinctionProbability(po)
		if math.Abs(po.pgf(pi)-pi) > 1e-10 {
			t.Errorf("lambda %v: PGF(π) = %v ≠ π = %v", lambda, po.pgf(pi), pi)
		}
	}
}

func TestExtinctionProbabilityN(t *testing.T) {
	po := poisson{Lambda: 2}
	pi := extinctionProbability(po)
	if got, want := ExtinctionProbabilityN(po, 3), math.Pow(pi, 3); math.Abs(got-want) > 1e-12 {
		t.Errorf("π^3 = %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for i0 < 1")
		}
	}()
	ExtinctionProbabilityN(po, 0)
}

func TestBinomialAndPoissonExtinctionAgree(t *testing.T) {
	// The Poisson approximation should track the exact binomial PGF
	// closely in the paper regime.
	b := Binomial{N: 10000, P: codeRedP()}
	po := poisson{Lambda: b.mean()}
	pb, _ := ExtinctionByGeneration(b, 1, 20)
	pp, _ := ExtinctionByGeneration(po, 1, 20)
	for n := range pb {
		if math.Abs(pb[n]-pp[n]) > 1e-4 {
			t.Errorf("generation %d: binomial %v vs poisson %v", n, pb[n], pp[n])
		}
	}
}

// Property: extinction sequence is always within [0, 1] and monotone for
// arbitrary valid offspring parameters.
func TestQuickExtinctionMonotone(t *testing.T) {
	f := func(nRaw uint16, pRaw uint16, i0Raw uint8) bool {
		n := int(nRaw % 20000)
		p := float64(pRaw) / math.MaxUint16 / 100 // small p
		i0 := int(i0Raw%5) + 1
		probs, err := ExtinctionByGeneration(Binomial{N: n, P: p}, i0, 15)
		if err != nil {
			return false
		}
		prev := -1.0
		for _, v := range probs {
			if v < prev-1e-12 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: π(λ) = 1 exactly when λ <= 1 for Poisson offspring.
func TestQuickProposition1Poisson(t *testing.T) {
	f := func(lRaw uint16) bool {
		lambda := float64(lRaw) / 8192 // up to ~8
		pi := extinctionProbability(poisson{Lambda: lambda})
		if lambda <= 1 {
			return pi == 1
		}
		return pi < 1 && pi > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package dist

import (
	"math"
	"testing"
	"testing/quick"

	"wormcontain/internal/rng"
)

func TestNewBorelTannerValidation(t *testing.T) {
	for _, bad := range []float64{-0.1, 1, 1.5, math.NaN()} {
		if _, err := NewBorelTanner(bad, 1); err == nil {
			t.Errorf("expected error for lambda = %v", bad)
		}
	}
	if _, err := NewBorelTanner(0.5, 0); err == nil {
		t.Error("expected error for i0 = 0")
	}
	if _, err := NewBorelTanner(0.83, 10); err != nil {
		t.Errorf("paper parameters rejected: %v", err)
	}
}

func TestBorelTannerPMFSumsToOne(t *testing.T) {
	cases := []BorelTanner{
		{Lambda: 0.3, I0: 1},
		{Lambda: 0.5, I0: 5},
		{Lambda: 0.83, I0: 10}, // Code Red, M = 10000 (Fig. 4/7)
		{Lambda: 0.42, I0: 10}, // Code Red, M = 5000
	}
	for _, bt := range cases {
		sum := 0.0
		// At λ=0.83 the tail is long; sum far out.
		for k := bt.I0; k <= 5000; k++ {
			sum += bt.pmf(k)
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("lambda=%v i0=%d: PMF sums to %v", bt.Lambda, bt.I0, sum)
		}
	}
}

func TestBorelTannerPaperMoments(t *testing.T) {
	// Section V: "E(I) = 58 and var(I) = 2035 (std = 45)" for Code Red
	// with I0 = 10 and M = 10000 (λ = 0.83).
	bt := BorelTanner{Lambda: 0.83, I0: 10}
	if mean := bt.Mean(); math.Abs(mean-58.82) > 0.05 {
		t.Errorf("mean = %v, paper reports ≈58", mean)
	}
	if vp := bt.VarPaper(); math.Abs(vp-2035) > 5 {
		t.Errorf("VarPaper = %v, paper reports 2035", vp)
	}
	// Textbook variance is λ times smaller.
	if v := bt.Var(); math.Abs(v-0.83*bt.VarPaper()) > 1e-9 {
		t.Errorf("Var = %v, want λ·VarPaper = %v", v, 0.83*bt.VarPaper())
	}
}

func TestBorelTannerMeanMatchesPMF(t *testing.T) {
	bt := BorelTanner{Lambda: 0.6, I0: 3}
	mean := 0.0
	for k := bt.I0; k <= 3000; k++ {
		mean += float64(k) * bt.pmf(k)
	}
	if math.Abs(mean-bt.Mean()) > 1e-4*(1+bt.Mean()) {
		t.Errorf("PMF mean %v, analytic %v", mean, bt.Mean())
	}
}

func TestBorelTannerVarMatchesPMF(t *testing.T) {
	// The PMF-derived variance must match Var (the textbook formula),
	// confirming the paper's printed formula differs by the λ factor.
	bt := BorelTanner{Lambda: 0.6, I0: 3}
	mean, m2 := 0.0, 0.0
	for k := bt.I0; k <= 5000; k++ {
		p := bt.pmf(k)
		mean += float64(k) * p
		m2 += float64(k) * float64(k) * p
	}
	variance := m2 - mean*mean
	if math.Abs(variance-bt.Var()) > 1e-3*(1+bt.Var()) {
		t.Errorf("PMF variance %v, Var() %v (VarPaper() %v)",
			variance, bt.Var(), bt.VarPaper())
	}
}

func TestBorelTannerDegenerateLambdaZero(t *testing.T) {
	bt := BorelTanner{Lambda: 0, I0: 4}
	if bt.pmf(4) != 1 {
		t.Errorf("PMF(I0) = %v, want 1 at lambda = 0", bt.pmf(4))
	}
	if bt.pmf(5) != 0 {
		t.Errorf("PMF(I0+1) = %v, want 0 at lambda = 0", bt.pmf(5))
	}
	if bt.Mean() != 4 {
		t.Errorf("Mean = %v, want 4", bt.Mean())
	}
}

func TestBorelTannerBelowSupport(t *testing.T) {
	bt := BorelTanner{Lambda: 0.5, I0: 10}
	if bt.pmf(9) != 0 || bt.CDF(9) != 0 {
		t.Error("mass below I0 must be zero")
	}
}

func TestBorelTannerSingleAncestorBorel(t *testing.T) {
	// With I0 = 1 this is the Borel distribution:
	// P{I = k} = e^{-kλ} (kλ)^{k-1} / k!.
	bt := BorelTanner{Lambda: 0.4, I0: 1}
	for k := 1; k <= 20; k++ {
		want := math.Exp(-float64(k)*0.4) *
			math.Pow(float64(k)*0.4, float64(k-1)) /
			math.Exp(logFactorial(k))
		if got := bt.pmf(k); math.Abs(got-want) > 1e-12*(1+want) {
			t.Errorf("Borel PMF(%d) = %v, want %v", k, got, want)
		}
	}
}

func TestBorelTannerPaperTailClaims(t *testing.T) {
	// Section III-C text claims, all with I0 = 10:
	// Slammer (p = 120000/2^32):
	//   M = 10000 → P{I > 20} < 0.05
	//   M = 5000  → P{I > 14} < 0.03
	pSl := slammerV / ipv4
	bt10k := BorelTanner{Lambda: 10000 * pSl, I0: 10}
	if s := bt10k.Survival(20); s >= 0.05 {
		t.Errorf("Slammer M=10000: P{I>20} = %v, paper claims < 0.05", s)
	}
	bt5k := BorelTanner{Lambda: 5000 * pSl, I0: 10}
	if s := bt5k.Survival(14); s >= 0.05 {
		t.Errorf("Slammer M=5000: P{I>14} = %v, paper claims 'high probability' of <= 4 extra infections", s)
	}
	// Code Red M = 5000: the paper says total <= 27 "with probability
	// 0.97"; the exact value is 0.9672, which the paper rounds up.
	pCR := codeRedV / ipv4
	btCR5k := BorelTanner{Lambda: 5000 * pCR, I0: 10}
	if c := btCR5k.CDF(27); c < 0.965 {
		t.Errorf("Code Red M=5000: P{I<=27} = %v, paper reports ≈0.97", c)
	}
	// Code Red M = 10000: "with probability 0.95 total below 150".
	btCR10k := BorelTanner{Lambda: 10000 * pCR, I0: 10}
	if c := btCR10k.CDF(150); c < 0.95 {
		t.Errorf("Code Red M=10000: P{I<=150} = %v, paper claims >= 0.95", c)
	}
}

func TestBorelTannerQuantileInverseOfCDF(t *testing.T) {
	bt := BorelTanner{Lambda: 0.83, I0: 10}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99} {
		k := bt.Quantile(q)
		if bt.CDF(k) < q {
			t.Errorf("q=%v: CDF(Quantile()) = %v < q", q, bt.CDF(k))
		}
		if k > bt.I0 && bt.CDF(k-1) >= q {
			t.Errorf("q=%v: quantile %d not minimal", q, k)
		}
	}
}

func TestBorelTannerSampleMatchesMean(t *testing.T) {
	src := rng.NewPCG64(301, 0)
	bt := BorelTanner{Lambda: 0.5, I0: 5}
	const n = 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(bt.sample(src))
	}
	mean := sum / n
	if math.Abs(mean-bt.Mean()) > 0.05*bt.Mean() {
		t.Errorf("sample mean %v, want ~%v", mean, bt.Mean())
	}
}

func TestBorelTannerSampleMatchesPMF(t *testing.T) {
	// Exact GW simulation must reproduce the analytic PMF: this is the
	// library-level version of Fig. 7's sim-vs-theory agreement.
	src := rng.NewPCG64(303, 0)
	bt := BorelTanner{Lambda: 0.4, I0: 2}
	const n = 100000
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		counts[bt.sample(src)]++
	}
	for k := 2; k <= 10; k++ {
		got := float64(counts[k]) / n
		want := bt.pmf(k)
		if math.Abs(got-want) > 4*math.Sqrt(want*(1-want)/n)+1e-4 {
			t.Errorf("k=%d: freq %v, PMF %v", k, got, want)
		}
	}
}

func TestBorelTannerSeries(t *testing.T) {
	bt := BorelTanner{Lambda: 0.83, I0: 10}
	pmf := bt.PMFSeries(200)
	cdf := bt.CDFSeries(200)
	if len(pmf) != 201 || len(cdf) != 201 {
		t.Fatalf("series lengths %d, %d; want 201", len(pmf), len(cdf))
	}
	for k := 0; k < 10; k++ {
		if pmf[k] != 0 || cdf[k] != 0 {
			t.Errorf("mass below I0 at k = %d", k)
		}
	}
	running := 0.0
	for k := range pmf {
		running += pmf[k]
		if math.Abs(running-cdf[k]) > 1e-9 {
			t.Fatalf("series inconsistent at k = %d", k)
		}
	}
}

// Property: PMF non-negative, CDF monotone and bounded for valid params.
func TestQuickBorelTannerCDF(t *testing.T) {
	f := func(lRaw uint16, i0Raw, kRaw uint8) bool {
		lambda := float64(lRaw) / (math.MaxUint16 + 1) // [0, 1)
		i0 := int(i0Raw%20) + 1
		k := int(kRaw)
		bt := BorelTanner{Lambda: lambda, I0: i0}
		c1, c2 := bt.CDF(k), bt.CDF(k+1)
		return bt.pmf(k) >= 0 && c1 >= 0 && c2 <= 1+1e-9 && c2 >= c1-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: sample totals are always >= I0.
func TestQuickBorelTannerSampleSupport(t *testing.T) {
	f := func(seed uint64, lRaw uint16, i0Raw uint8) bool {
		lambda := float64(lRaw%900) / 1000 // [0, 0.9)
		i0 := int(i0Raw%10) + 1
		bt := BorelTanner{Lambda: lambda, I0: i0}
		src := rng.NewSplitMix64(seed)
		for i := 0; i < 5; i++ {
			if bt.sample(src) < i0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

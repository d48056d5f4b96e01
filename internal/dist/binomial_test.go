package dist

import (
	"math"
	"testing"
	"testing/quick"

	"wormcontain/internal/rng"
)

// Paper parameters used across tests: Code Red vulnerability density.
const (
	codeRedV = 360000.0
	slammerV = 120000.0
	ipv4     = 1 << 32
)

func codeRedP() float64 { return codeRedV / ipv4 }

func TestNewBinomialValidation(t *testing.T) {
	if _, err := newBinomial(-1, 0.5); err == nil {
		t.Error("expected error for negative n")
	}
	if _, err := newBinomial(10, -0.1); err == nil {
		t.Error("expected error for p < 0")
	}
	if _, err := newBinomial(10, 1.1); err == nil {
		t.Error("expected error for p > 1")
	}
	if _, err := newBinomial(10, math.NaN()); err == nil {
		t.Error("expected error for NaN p")
	}
	if _, err := newBinomial(10000, codeRedP()); err != nil {
		t.Errorf("unexpected error for paper parameters: %v", err)
	}
}

func TestBinomialMomentsPaperRegime(t *testing.T) {
	// Code Red with M = 10000: E[ξ] = Mp ≈ 0.838.
	b := Binomial{N: 10000, P: codeRedP()}
	wantMean := 10000 * codeRedP()
	if math.Abs(b.mean()-wantMean) > 1e-12 {
		t.Errorf("mean = %v, want %v", b.mean(), wantMean)
	}
	if b.variance() >= b.mean() {
		t.Errorf("binomial variance %v must be < mean %v", b.variance(), b.mean())
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	cases := []Binomial{
		{N: 10, P: 0.3},
		{N: 100, P: 0.01},
		{N: 1000, P: 0.5},
		{N: 10000, P: codeRedP()},
	}
	for _, b := range cases {
		sum := 0.0
		for k := 0; k <= b.N; k++ {
			pk := b.pmf(k)
			sum += pk
			if pk < 1e-18 && float64(k) > b.mean() {
				break // negligible tail
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("N=%d p=%v: PMF sums to %v", b.N, b.P, sum)
		}
	}
}

func TestBinomialPMFSmallExact(t *testing.T) {
	// Binomial(3, 0.5): 1/8, 3/8, 3/8, 1/8.
	b := Binomial{N: 3, P: 0.5}
	want := []float64{0.125, 0.375, 0.375, 0.125}
	for k, w := range want {
		if got := b.pmf(k); math.Abs(got-w) > 1e-12 {
			t.Errorf("PMF(%d) = %v, want %v", k, got, w)
		}
	}
}

func TestBinomialDegenerateCases(t *testing.T) {
	b0 := Binomial{N: 5, P: 0}
	if b0.pmf(0) != 1 || b0.pmf(1) != 0 {
		t.Error("p = 0 should put all mass at k = 0")
	}
	b1 := Binomial{N: 5, P: 1}
	if b1.pmf(5) != 1 || b1.pmf(4) != 0 {
		t.Error("p = 1 should put all mass at k = N")
	}
}

func TestBinomialCDFBounds(t *testing.T) {
	b := Binomial{N: 100, P: 0.1}
	if got := b.cdf(-1); got != 0 {
		t.Errorf("CDF(-1) = %v, want 0", got)
	}
	if got := b.cdf(100); got != 1 {
		t.Errorf("CDF(N) = %v, want 1", got)
	}
	if got := b.cdf(1000); got != 1 {
		t.Errorf("CDF(>N) = %v, want 1", got)
	}
}

func TestBinomialCDFMonotone(t *testing.T) {
	b := Binomial{N: 50, P: 0.25}
	prev := -1.0
	for k := 0; k <= 50; k++ {
		c := b.cdf(k)
		if c < prev {
			t.Fatalf("CDF not monotone at k = %d: %v < %v", k, c, prev)
		}
		prev = c
	}
}

func TestBinomialPGFAtBoundaries(t *testing.T) {
	b := Binomial{N: 10000, P: codeRedP()}
	// φ(1) = 1 always; φ(0) = P{ξ = 0}.
	if got := b.pgf(1); math.Abs(got-1) > 1e-12 {
		t.Errorf("PGF(1) = %v, want 1", got)
	}
	if got, want := b.pgf(0), b.pmf(0); math.Abs(got-want) > 1e-12 {
		t.Errorf("PGF(0) = %v, want PMF(0) = %v", got, want)
	}
}

func TestBinomialPGFDerivativeIsMean(t *testing.T) {
	// φ'(1) = E[ξ]; check by central difference.
	b := Binomial{N: 5000, P: codeRedP()}
	const h = 1e-6
	deriv := (b.pgf(1+h) - b.pgf(1-h)) / (2 * h)
	if math.Abs(deriv-b.mean()) > 1e-4*(1+b.mean()) {
		t.Errorf("PGF'(1) = %v, want mean %v", deriv, b.mean())
	}
}

func TestBinomialSampleMoments(t *testing.T) {
	src := rng.NewPCG64(101, 0)
	cases := []Binomial{
		{N: 20, P: 0.4},     // small-N direct path
		{N: 10000, P: 1e-4}, // geometric-skip path, worm regime
		{N: 500, P: 0.9},    // high p
	}
	for _, b := range cases {
		const n = 50000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := float64(b.sample(src))
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-b.mean()) > 0.05*(1+b.mean()) {
			t.Errorf("N=%d p=%v: sample mean %v, want %v", b.N, b.P, mean, b.mean())
		}
		if math.Abs(variance-b.variance()) > 0.1*(1+b.variance()) {
			t.Errorf("N=%d p=%v: sample var %v, want %v", b.N, b.P, variance, b.variance())
		}
	}
}

func TestBinomialSampleRange(t *testing.T) {
	src := rng.NewPCG64(103, 0)
	b := Binomial{N: 100, P: 0.03}
	for i := 0; i < 10000; i++ {
		k := b.sample(src)
		if k < 0 || k > b.N {
			t.Fatalf("sample %d out of [0, %d]", k, b.N)
		}
	}
}

func TestBinomialPoissonApproxClose(t *testing.T) {
	// Section III-C: for p ≈ 8.4e-5 the Poisson approximation is
	// accurate. Check total-variation distance of the PMFs is tiny.
	b := Binomial{N: 10000, P: codeRedP()}
	po := b.poissonApprox()
	tv := 0.0
	for k := 0; k <= 30; k++ {
		tv += math.Abs(b.pmf(k) - po.pmf(k))
	}
	tv /= 2
	if tv > 1e-4 {
		t.Errorf("TV(binomial, poisson) = %v at paper parameters, want < 1e-4", tv)
	}
}

// Property: PMF is non-negative and CDF(k) − CDF(k−1) = PMF(k).
func TestQuickBinomialCDFConsistent(t *testing.T) {
	f := func(nRaw uint8, pRaw uint16, kRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := float64(pRaw) / math.MaxUint16
		k := int(kRaw) % (n + 1)
		b := Binomial{N: n, P: p}
		diff := b.cdf(k) - b.cdf(k-1)
		return b.pmf(k) >= 0 && math.Abs(diff-b.pmf(k)) <= 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: samples always lie in [0, N].
func TestQuickBinomialSampleInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16, pRaw uint16) bool {
		n := int(nRaw % 2000)
		p := float64(pRaw) / math.MaxUint16
		b := Binomial{N: n, P: p}
		src := rng.NewSplitMix64(seed)
		for i := 0; i < 20; i++ {
			k := b.sample(src)
			if k < 0 || k > n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBinomialSamplerIdenticalSequence pins the contract that makes
// Sampler a drop-in hot-loop replacement: from the same Source state it
// must consume the same draws and return the same variates as Sample,
// across every branch of the algorithm (degenerate, Bernoulli, skip).
func TestBinomialSamplerIdenticalSequence(t *testing.T) {
	cases := []Binomial{
		{N: 0, P: 0.5},
		{N: 100, P: 0},
		{N: 100, P: 1},
		{N: 20, P: 0.3},        // Bernoulli branch
		{N: 10000, P: 8.38e-5}, // geometric-skip branch (worm regime)
		{N: 360000, P: 2.3e-6},
	}
	for _, b := range cases {
		a := rng.NewPCG64(42, 9)
		c := rng.NewPCG64(42, 9)
		s := b.Sampler()
		for i := 0; i < 2000; i++ {
			want := b.sample(a)
			got := s.Sample(c)
			if got != want {
				t.Fatalf("N=%d P=%v draw %d: Sampler %d != Sample %d",
					b.N, b.P, i, got, want)
			}
		}
	}
}

// TestBinomialSamplerMoments checks the cached sampler against the
// distribution's moments directly, independent of the equivalence test.
func TestBinomialSamplerMoments(t *testing.T) {
	b := Binomial{N: 10000, P: 8.38e-5}
	s := b.Sampler()
	src := rng.NewPCG64(7, 3)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(s.Sample(src))
	}
	mean := sum / n
	if math.Abs(mean-b.mean()) > 0.02*b.mean() {
		t.Errorf("sampler mean %v, want ≈ %v", mean, b.mean())
	}
}

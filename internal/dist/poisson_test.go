package dist

import (
	"math"
	"testing"
	"testing/quick"

	"wormcontain/internal/rng"
)

func TestPoissonPMFKnownValues(t *testing.T) {
	// Poisson(1): P{0} = P{1} = e^-1.
	p := poisson{Lambda: 1}
	e := math.Exp(-1)
	if got := p.pmf(0); math.Abs(got-e) > 1e-12 {
		t.Errorf("PMF(0) = %v, want %v", got, e)
	}
	if got := p.pmf(1); math.Abs(got-e) > 1e-12 {
		t.Errorf("PMF(1) = %v, want %v", got, e)
	}
	if got := p.pmf(2); math.Abs(got-e/2) > 1e-12 {
		t.Errorf("PMF(2) = %v, want %v", got, e/2)
	}
	if got := p.pmf(-1); got != 0 {
		t.Errorf("PMF(-1) = %v, want 0", got)
	}
}

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, lambda := range []float64{0.1, 0.83, 1, 5, 50} {
		p := poisson{Lambda: lambda}
		sum := 0.0
		for k := 0; k <= int(lambda)+200; k++ {
			sum += p.pmf(k)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("lambda %v: PMF sums to %v", lambda, sum)
		}
	}
}

func TestPoissonZeroLambda(t *testing.T) {
	p := poisson{Lambda: 0}
	if p.pmf(0) != 1 || p.pmf(1) != 0 {
		t.Error("Poisson(0) should be a point mass at 0")
	}
	if p.cdf(0) != 1 {
		t.Error("Poisson(0) CDF(0) should be 1")
	}
	src := rng.NewSplitMix64(1)
	if p.sample(src) != 0 {
		t.Error("Poisson(0) sample should be 0")
	}
}

func TestPoissonCDFMatchesPMFSum(t *testing.T) {
	p := poisson{Lambda: 0.83} // Code Red λ at M = 10000
	sum := 0.0
	for k := 0; k <= 10; k++ {
		sum += p.pmf(k)
		if got := p.cdf(k); math.Abs(got-sum) > 1e-12 {
			t.Errorf("CDF(%d) = %v, want %v", k, got, sum)
		}
	}
}

func TestPoissonPGF(t *testing.T) {
	p := poisson{Lambda: 0.83}
	if got := p.pgf(1); math.Abs(got-1) > 1e-12 {
		t.Errorf("PGF(1) = %v, want 1", got)
	}
	if got, want := p.pgf(0), math.Exp(-0.83); math.Abs(got-want) > 1e-12 {
		t.Errorf("PGF(0) = %v, want %v", got, want)
	}
}

func TestPoissonSampleMoments(t *testing.T) {
	src := rng.NewPCG64(201, 0)
	for _, lambda := range []float64{0.5, 0.83, 10, 100, 1000} {
		p := poisson{Lambda: lambda}
		const n = 50000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := float64(p.sample(src))
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-lambda) > 0.05*(1+lambda) {
			t.Errorf("lambda %v: sample mean %v", lambda, mean)
		}
		if math.Abs(variance-lambda) > 0.1*(1+lambda) {
			t.Errorf("lambda %v: sample var %v", lambda, variance)
		}
	}
}

func TestPoissonQuantile(t *testing.T) {
	p := poisson{Lambda: 0.83}
	// Quantile must be the smallest k with CDF(k) >= q.
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		k := p.quantile(q)
		if p.cdf(k) < q {
			t.Errorf("q=%v: CDF(Quantile) = %v < q", q, p.cdf(k))
		}
		if k > 0 && p.cdf(k-1) >= q {
			t.Errorf("q=%v: Quantile %d not minimal", q, k)
		}
	}
}

func TestPoissonQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for q >= 1")
		}
	}()
	poisson{Lambda: 1}.quantile(1)
}

// Property: CDF is within [0,1] and monotone in k.
func TestQuickPoissonCDFMonotone(t *testing.T) {
	f := func(lRaw uint16, kRaw uint8) bool {
		lambda := float64(lRaw) / 1000 // up to ~65
		p := poisson{Lambda: lambda}
		k := int(kRaw % 100)
		a, b := p.cdf(k), p.cdf(k+1)
		return a >= 0 && b <= 1+1e-12 && b >= a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: sampling is deterministic per seed.
func TestQuickPoissonSampleDeterministic(t *testing.T) {
	f := func(seed uint64, lRaw uint16) bool {
		lambda := float64(lRaw) / 500
		p := poisson{Lambda: lambda}
		a := p.sample(rng.NewSplitMix64(seed))
		b := p.sample(rng.NewSplitMix64(seed))
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// countingSource wraps a Source and counts how many uniforms the sampler
// consumes, so tests can pin down the draw cost per variate.
type countingSource struct {
	src   rng.Source
	draws int
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countingSource) Float64() float64 {
	c.draws++
	return c.src.Float64()
}

// TestPoissonLargeLambdaOneDrawPerVariate pins the defining property of
// inversion sampling: for λ >= 30 every variate consumes exactly one
// uniform. The recursive-halving method this replaced consumed ~λ
// uniforms per variate (it bottomed out in Knuth's product method).
func TestPoissonLargeLambdaOneDrawPerVariate(t *testing.T) {
	for _, lambda := range []float64{30, 45, 100, 500, 2000} {
		p := poisson{Lambda: lambda}
		cs := &countingSource{src: rng.NewPCG64(7, 0)}
		const n = 1000
		for i := 0; i < n; i++ {
			p.sample(cs)
		}
		if cs.draws != n {
			t.Errorf("lambda %v: %d draws for %d variates, want exactly %d",
				lambda, cs.draws, n, n)
		}
	}
}

// TestPoissonSmallLambdaDrawsScaleWithLambda documents the contrast: the
// Knuth branch consumes on average λ+1 uniforms per variate.
func TestPoissonSmallLambdaDrawsScaleWithLambda(t *testing.T) {
	p := poisson{Lambda: 10}
	cs := &countingSource{src: rng.NewPCG64(7, 0)}
	const n = 5000
	for i := 0; i < n; i++ {
		p.sample(cs)
	}
	perVariate := float64(cs.draws) / n
	if perVariate < 10 || perVariate > 12.5 {
		t.Errorf("Knuth branch: %.2f draws per variate, want ≈ λ+1 = 11", perVariate)
	}
}

// TestPoissonLargeLambdaChiSquare is a goodness-of-fit check on the
// inversion-from-the-mode branch: bin 50k samples at λ = 45 (and λ = 200)
// against the exact PMF and compare the chi-square statistic to a
// generous critical value. Bins with expected count < 5 are merged into
// the tails.
func TestPoissonLargeLambdaChiSquare(t *testing.T) {
	for _, lambda := range []float64{45, 200} {
		p := poisson{Lambda: lambda}
		src := rng.NewPCG64(1905, 4)
		const n = 50000

		// Bin range: mode ± 8σ covers all realistic mass; anything
		// outside lands in the open tail bins.
		sigma := math.Sqrt(lambda)
		lo := int(lambda - 8*sigma)
		if lo < 0 {
			lo = 0
		}
		hi := int(lambda + 8*sigma)
		counts := make([]float64, hi-lo+2) // [0] = left tail, [last] = right tail
		for i := 0; i < n; i++ {
			k := p.sample(src)
			switch {
			case k < lo:
				counts[0]++
			case k > hi:
				counts[len(counts)-1]++
			default:
				counts[k-lo+1]++
			}
		}
		expected := make([]float64, len(counts))
		expected[0] = n * p.cdf(lo-1)
		expected[len(expected)-1] = n * (1 - p.cdf(hi))
		for k := lo; k <= hi; k++ {
			expected[k-lo+1] = n * p.pmf(k)
		}

		// Merge bins with expected < 5 left to right so every cell
		// meets the classical chi-square validity rule.
		var obs, exp []float64
		var co, ce float64
		for i := range counts {
			co += counts[i]
			ce += expected[i]
			if ce >= 5 {
				obs = append(obs, co)
				exp = append(exp, ce)
				co, ce = 0, 0
			}
		}
		if ce > 0 && len(exp) > 0 {
			obs[len(obs)-1] += co
			exp[len(exp)-1] += ce
		}

		chi2 := 0.0
		for i := range obs {
			d := obs[i] - exp[i]
			chi2 += d * d / exp[i]
		}
		// Critical value: mean df plus ~4 standard deviations of the
		// chi-square distribution — far beyond the 0.999 quantile, so
		// the test only fails on a genuinely broken sampler, not on
		// seed luck.
		df := float64(len(obs) - 1)
		crit := df + 4*math.Sqrt(2*df)
		if chi2 > crit {
			t.Errorf("lambda %v: chi-square %.1f exceeds %.1f (df %.0f)",
				lambda, chi2, crit, df)
		}
	}
}

// TestPoissonLargeLambdaRange bounds the inversion branch: samples stay
// nonnegative and within a 12σ envelope of the mean, so outward search
// from the mode cannot run away on tail underflow.
func TestPoissonLargeLambdaRange(t *testing.T) {
	p := poisson{Lambda: 64}
	src := rng.NewPCG64(11, 0)
	for i := 0; i < 20000; i++ {
		k := p.sample(src)
		if k < 0 {
			t.Fatalf("negative sample %d", k)
		}
		// Loose sanity envelope: 12σ around the mean.
		if math.Abs(float64(k)-64) > 12*8 {
			t.Fatalf("sample %d implausibly far from λ = 64", k)
		}
	}
}

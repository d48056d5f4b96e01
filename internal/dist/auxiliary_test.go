package dist

import (
	"math"
	"testing"

	"wormcontain/internal/rng"
)

func TestNewNormalValidation(t *testing.T) {
	if _, err := newNormal(0, -1); err == nil {
		t.Error("expected error for sigma < 0")
	}
	if _, err := newNormal(5, 2); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestNormalSampleMoments(t *testing.T) {
	src := rng.NewPCG64(401, 0)
	n := normal{Mu: 3, Sigma: 2}
	const draws = 100000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < draws; i++ {
		v := n.sample(src)
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean-3) > 0.03 {
		t.Errorf("mean %v, want ~3", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Errorf("variance %v, want ~4", variance)
	}
}

func TestNormalZeroSigma(t *testing.T) {
	src := rng.NewPCG64(403, 0)
	n := normal{Mu: 7, Sigma: 0}
	if v := n.sample(src); v != 7 {
		t.Errorf("degenerate normal sample %v, want 7", v)
	}
}

func TestLognormalMean(t *testing.T) {
	src := rng.NewPCG64(405, 0)
	l := Lognormal{Mu: 1, Sigma: 0.5}
	const draws = 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		sum += l.Sample(src)
	}
	mean := sum / draws
	if math.Abs(mean-l.mean()) > 0.03*l.mean() {
		t.Errorf("sample mean %v, analytic %v", mean, l.mean())
	}
}

func TestLognormalQuantileMonotone(t *testing.T) {
	l := Lognormal{Mu: 2, Sigma: 1}
	prev := 0.0
	for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		v := l.quantile(q)
		if v <= prev {
			t.Fatalf("quantile not increasing at q = %v", q)
		}
		prev = v
	}
	// Median of a lognormal is e^mu.
	if med := l.quantile(0.5); math.Abs(med-math.Exp(2)) > 0.05*math.Exp(2) {
		t.Errorf("median %v, want ~%v", med, math.Exp(2))
	}
}

func TestParetoValidation(t *testing.T) {
	if _, err := newPareto(0, 1); err == nil {
		t.Error("expected error for xm = 0")
	}
	if _, err := newPareto(1, 0); err == nil {
		t.Error("expected error for alpha = 0")
	}
}

func TestParetoSampleAboveScale(t *testing.T) {
	src := rng.NewPCG64(407, 0)
	p := pareto{Xm: 100, Alpha: 1.5}
	for i := 0; i < 10000; i++ {
		if v := p.sample(src); v < p.Xm {
			t.Fatalf("sample %v below scale %v", v, p.Xm)
		}
	}
}

func TestParetoCDF(t *testing.T) {
	p := pareto{Xm: 1, Alpha: 2}
	if got := p.cdf(0.5); got != 0 {
		t.Errorf("CDF below xm = %v, want 0", got)
	}
	if got := p.cdf(1); got != 0 {
		t.Errorf("CDF(xm) = %v, want 0", got)
	}
	// P{X <= 2} = 1 - (1/2)^2 = 0.75.
	if got := p.cdf(2); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("CDF(2) = %v, want 0.75", got)
	}
}

func TestParetoSampleMatchesCDF(t *testing.T) {
	src := rng.NewPCG64(409, 0)
	p := pareto{Xm: 1, Alpha: 2}
	const draws = 100000
	below2 := 0
	for i := 0; i < draws; i++ {
		if p.sample(src) <= 2 {
			below2++
		}
	}
	got := float64(below2) / draws
	if math.Abs(got-0.75) > 0.01 {
		t.Errorf("empirical P{X<=2} = %v, want ~0.75", got)
	}
}

func TestNewZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("expected error for n = 0")
	}
	if _, err := NewZipf(10, -1); err == nil {
		t.Error("expected error for s < 0")
	}
}

func TestZipfRangeAndBias(t *testing.T) {
	src := rng.NewPCG64(411, 0)
	z, err := NewZipf(100, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 101)
	const draws = 100000
	for i := 0; i < draws; i++ {
		r := z.Sample(src)
		if r < 1 || r > 100 {
			t.Fatalf("rank %d out of [1, 100]", r)
		}
		counts[r]++
	}
	// Rank 1 must dominate rank 10 roughly by 10^1.2 ≈ 15.8.
	ratio := float64(counts[1]) / float64(counts[10])
	if ratio < 10 || ratio > 25 {
		t.Errorf("rank1/rank10 = %v, want ≈15.8", ratio)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	src := rng.NewPCG64(413, 0)
	z, err := NewZipf(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 11)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Sample(src)]++
	}
	for r := 1; r <= 10; r++ {
		frac := float64(counts[r]) / draws
		if math.Abs(frac-0.1) > 0.01 {
			t.Errorf("rank %d freq %v, want ~0.1", r, frac)
		}
	}
}

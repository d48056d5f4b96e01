package dist

import (
	"math"
	"testing"

	"wormcontain/internal/rng"
)

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

package dist

import (
	"testing"

	"wormcontain/internal/rng"
)

// Benchmarks cover the hot paths of the analytical engine: the worm
// regime is Binomial(10000, 8.4e-5) offspring and Borel–Tanner totals
// with λ ≈ 0.84.

func BenchmarkLogGamma(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = logGamma(float64(i%1000) + 0.5)
	}
}

func BenchmarkBinomialPMF(b *testing.B) {
	bin := Binomial{N: 10000, P: 8.38e-5}
	for i := 0; i < b.N; i++ {
		_ = bin.pmf(i % 30)
	}
}

func BenchmarkBinomialSampleWormRegime(b *testing.B) {
	bin := Binomial{N: 10000, P: 8.38e-5}
	src := rng.NewPCG64(1, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = bin.sample(src)
	}
}

func BenchmarkPoissonSample(b *testing.B) {
	p := Poisson{Lambda: 0.84}
	src := rng.NewPCG64(1, 0)
	for i := 0; i < b.N; i++ {
		_ = p.sample(src)
	}
}

func BenchmarkBorelTannerPMF(b *testing.B) {
	bt := BorelTanner{Lambda: 0.8382, I0: 10}
	for i := 0; i < b.N; i++ {
		_ = bt.pmf(10 + i%400)
	}
}

func BenchmarkBorelTannerCDFSeries(b *testing.B) {
	bt := BorelTanner{Lambda: 0.8382, I0: 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = bt.CDFSeries(400)
	}
}

func BenchmarkBorelTannerQuantile99(b *testing.B) {
	bt := BorelTanner{Lambda: 0.8382, I0: 10}
	for i := 0; i < b.N; i++ {
		_ = bt.Quantile(0.99)
	}
}

func BenchmarkExtinctionByGeneration(b *testing.B) {
	bin := Binomial{N: 10000, P: 8.38e-5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ExtinctionByGeneration(bin, 1, 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinomialSamplerWormRegime(b *testing.B) {
	s := Binomial{N: 10000, P: 8.38e-5}.Sampler()
	src := rng.NewPCG64(1, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Sample(src)
	}
}

func BenchmarkPoissonSampleLarge(b *testing.B) {
	p := Poisson{Lambda: 200}
	src := rng.NewPCG64(1, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.sample(src)
	}
}

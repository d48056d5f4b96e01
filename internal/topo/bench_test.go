package topo

import (
	"testing"

	"wormcontain/internal/rng"
)

// BenchmarkGraphScanHotPath measures the graph-mode scan target
// sampler exactly as the sim engine drives it: a uniform neighbor draw
// from the CSR slab for a churning set of source vertices. The
// recorded allocs/op must be 0 (TestTopoSampleZeroAllocs holds
// it).
func BenchmarkGraphScanHotPath(b *testing.B) {
	g, err := ScaleFree{N: 100_000, Attach: 3}.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.NewPCG64(1, 0)
	n := g.N()
	b.ReportAllocs()
	b.ResetTimer()
	var sink int32
	for i := 0; i < b.N; i++ {
		v, ok := g.Sample(src, i%n)
		if ok {
			sink = v
		}
	}
	_ = sink
}

// TestTopoSampleZeroAllocs pins the hot-path allocation budget at
// exactly zero, independent of benchmark runs.
func TestTopoSampleZeroAllocs(t *testing.T) {
	g, err := SmallWorld{N: 10_000, K: 6, Rewire: 0.1}.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewPCG64(1, 0)
	i := 0
	allocs := testing.AllocsPerRun(10_000, func() {
		if _, ok := g.Sample(src, i); !ok {
			t.Fatal("unexpected isolated vertex")
		}
		i = (i + 1) % g.N()
	})
	if allocs != 0 {
		t.Fatalf("graph scan sampler allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkSpectralRadius measures λ₁ computation on a mid-size
// scale-free graph — the pre-experiment analysis step, not a hot path,
// recorded so regressions stay visible.
func BenchmarkSpectralRadius(b *testing.B) {
	g, err := ScaleFree{N: 20_000, Attach: 3}.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if l1, _ := g.SpectralRadius(); l1 <= 0 {
			b.Fatal("implausible spectral radius")
		}
	}
}

package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference outputs for seed 0 from the public-domain reference
	// implementation (Vigna), as used in the xoshiro seeding examples.
	s := NewSplitMix64(0)
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
	}
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Errorf("output %d: got %#x, want %#x", i, got, w)
		}
	}
}

func TestSplitMix64Determinism(t *testing.T) {
	a, b := NewSplitMix64(42), NewSplitMix64(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSplitMix64DistinctSeedsDiverge(t *testing.T) {
	a, b := NewSplitMix64(1), NewSplitMix64(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("seeds 1 and 2 collided on %d of 100 outputs", same)
	}
}

func TestPCG64Determinism(t *testing.T) {
	a, b := NewPCG64(7, 3), NewPCG64(7, 3)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestPCG64StreamsIndependent(t *testing.T) {
	a, b := NewPCG64(7, 0), NewPCG64(7, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams 0 and 1 collided on %d of 1000 outputs", same)
	}
}

func TestPCG64SplitIndependence(t *testing.T) {
	parent := NewPCG64(99, 0)
	child := parent.split()
	same := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("parent and child collided on %d of 1000 outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	srcs := map[string]Source{
		"splitmix": NewSplitMix64(5),
		"pcg":      NewPCG64(5, 5),
	}
	for name, src := range srcs {
		for i := 0; i < 10000; i++ {
			f := src.Float64()
			if f < 0 || f >= 1 {
				t.Fatalf("%s: Float64 out of [0,1): %v", name, f)
			}
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	src := NewPCG64(11, 0)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += src.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestUint64nBounds(t *testing.T) {
	src := NewPCG64(13, 0)
	for _, n := range []uint64{1, 2, 3, 7, 16, 100, 1 << 32, 1<<63 + 5} {
		for i := 0; i < 1000; i++ {
			v := Uint64n(src, n)
			if v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared style check on a small modulus.
	src := NewPCG64(17, 0)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[Uint64n(src, n)]++
	}
	expect := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Errorf("value %d drawn %d times, expected ~%.0f", v, c, expect)
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n == 0")
		}
	}()
	Uint64n(NewSplitMix64(1), 0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for n == %d", n)
				}
			}()
			Intn(NewSplitMix64(1), n)
		}()
	}
}

func TestExponentialMean(t *testing.T) {
	src := NewPCG64(23, 0)
	for _, rate := range []float64{0.5, 1, 6, 4000} {
		const n = 100000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += Exponential(src, rate)
		}
		mean := sum / n
		want := 1 / rate
		if math.Abs(mean-want) > 0.02*want {
			t.Errorf("rate %v: mean %v, want ~%v", rate, mean, want)
		}
	}
}

func TestExponentialPositive(t *testing.T) {
	src := NewPCG64(29, 0)
	for i := 0; i < 10000; i++ {
		if v := Exponential(src, 2); v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("bad exponential variate %v", v)
		}
	}
}

func TestExponentialPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rate <= 0")
		}
	}()
	Exponential(NewSplitMix64(1), 0)
}

func TestPermIsPermutation(t *testing.T) {
	src := NewPCG64(31, 0)
	for _, n := range []int{0, 1, 2, 10, 257} {
		p := perm(src, n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	src := NewPCG64(37, 0)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	shuffle(src, len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Errorf("shuffle changed multiset: sum %d -> %d", sum, got)
	}
}

// Property: Uint64n never returns a value >= n, for arbitrary n and seeds.
func TestQuickUint64nInRange(t *testing.T) {
	f := func(seed uint64, n uint64) bool {
		if n == 0 {
			n = 1
		}
		src := NewSplitMix64(seed)
		for i := 0; i < 50; i++ {
			if Uint64n(src, n) >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the same (seed, stream) pair always reproduces the same prefix.
func TestQuickPCGReproducible(t *testing.T) {
	f := func(seed, stream uint64) bool {
		a, b := NewPCG64(seed, stream), NewPCG64(seed, stream)
		for i := 0; i < 20; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mul128 agrees with big-integer multiplication on the low bits
// and with a shift identity: (a*b) >> 64 recoverable via math/bits-free
// decomposition check a*b mod 2^64 == lo.
func TestQuickMul128Low(t *testing.T) {
	f := func(a, b uint64) bool {
		_, lo := mul128(a, b)
		return lo == a*b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMul128KnownValues(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul128(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul128(%#x, %#x) = (%#x, %#x), want (%#x, %#x)",
				c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkSplitMix64(b *testing.B) {
	s := NewSplitMix64(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkPCG64(b *testing.B) {
	s := NewPCG64(1, 1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkUint64n(b *testing.B) {
	s := NewPCG64(1, 1)
	for i := 0; i < b.N; i++ {
		_ = Uint64n(s, 360000)
	}
}

// TestPCG64ReseedMatchesNew verifies that reseeding a used generator in
// place reproduces the exact stream a freshly constructed generator
// yields — the property that lets Monte-Carlo loops reuse one PCG64
// across replications without perturbing any draw sequence.
func TestPCG64ReseedMatchesNew(t *testing.T) {
	reused := NewPCG64(99, 99)
	for i := 0; i < 17; i++ { // dirty the state
		reused.Uint64()
	}
	cases := []struct{ seed, stream uint64 }{{1, 0}, {1, 7}, {1905, 3}, {0, 0}}
	for _, c := range cases {
		reused.Reseed(c.seed, c.stream)
		fresh := NewPCG64(c.seed, c.stream)
		for i := 0; i < 1000; i++ {
			got, want := reused.Uint64(), fresh.Uint64()
			if got != want {
				t.Fatalf("seed %d stream %d draw %d: reseeded %#x, fresh %#x",
					c.seed, c.stream, i, got, want)
			}
		}
	}
}

package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasic(t *testing.T) {
	s, err := summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Errorf("summary = %+v", s)
	}
	// Sample variance with n−1: Σ(x−5)² = 32, /7 ≈ 4.571.
	if math.Abs(s.Variance-32.0/7) > 1e-12 {
		t.Errorf("variance = %v, want %v", s.Variance, 32.0/7)
	}
	if math.Abs(s.Std-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("std = %v", s.Std)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s, err := summarize([]float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Variance != 0 || s.Std != 0 || s.Mean != 3.5 {
		t.Errorf("singleton summary = %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := summarize(nil); err == nil {
		t.Error("expected error for empty sample")
	}
}

func TestSummarizeInts(t *testing.T) {
	s, err := SummarizeInts([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 2 {
		t.Errorf("mean = %v", s.Mean)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.9, 9}, {1, 10},
	}
	for _, c := range cases {
		got, err := quantile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Input must not be reordered.
	if xs[0] != 9 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := quantile(nil, 0.5); err == nil {
		t.Error("expected error for empty sample")
	}
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := quantile([]float64{1}, q); err == nil {
			t.Errorf("expected error for q = %v", q)
		}
	}
}

func TestIntHistogramBasics(t *testing.T) {
	h := NewIntHistogram()
	if _, _, ok := h.Range(); ok {
		t.Error("empty histogram should have no range")
	}
	for _, v := range []int{3, 3, 5, 7, 3} {
		h.Add(v)
	}
	if h.total != 5 || h.counts[3] != 3 || h.counts[4] != 0 {
		t.Errorf("counts wrong: total=%d", h.total)
	}
	lo, hi, ok := h.Range()
	if !ok || lo != 3 || hi != 7 {
		t.Errorf("range = (%d, %d, %v)", lo, hi, ok)
	}
}

func TestIntHistogramAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewIntHistogram().Add(-1)
}

func TestRelAndCumFreq(t *testing.T) {
	h := NewIntHistogram()
	for _, v := range []int{0, 1, 1, 2, 2, 2, 2, 9} {
		h.Add(v)
	}
	rel := h.RelFreq(3)
	want := []float64{1.0 / 8, 2.0 / 8, 4.0 / 8, 0}
	for i := range want {
		if math.Abs(rel[i]-want[i]) > 1e-12 {
			t.Errorf("rel[%d] = %v, want %v", i, rel[i], want[i])
		}
	}
	cum := h.CumFreq(3)
	// Value 9 lies beyond kMax, so the cumulative tops out at 7/8.
	if math.Abs(cum[3]-7.0/8) > 1e-12 {
		t.Errorf("cum[3] = %v, want 7/8", cum[3])
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatal("cumulative frequency not monotone")
		}
	}
}

func TestRelFreqEmpty(t *testing.T) {
	h := NewIntHistogram()
	rel := h.RelFreq(5)
	for _, v := range rel {
		if v != 0 {
			t.Fatal("empty histogram must give zero frequencies")
		}
	}
}

func TestTotalVariation(t *testing.T) {
	p := []float64{0.5, 0.5}
	q := []float64{1, 0}
	if got := totalVariation(p, q); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("TV = %v, want 0.5", got)
	}
	if got := totalVariation(p, p); got != 0 {
		t.Errorf("TV(p, p) = %v, want 0", got)
	}
	// Mismatched lengths: missing entries are zeros.
	if got := totalVariation([]float64{1}, []float64{0.5, 0.5}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("TV mismatched = %v, want 0.5", got)
	}
}

func TestECDF(t *testing.T) {
	e, err := newECDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {99, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.N() != 4 {
		t.Errorf("N = %d", e.N())
	}
	if _, err := newECDF(nil); err == nil {
		t.Error("expected error for empty sample")
	}
}

// Property: TV distance is symmetric and within [0, 1] for probability
// vectors.
func TestQuickTotalVariationSymmetric(t *testing.T) {
	f := func(a, b []uint8) bool {
		norm := func(raw []uint8) []float64 {
			if len(raw) == 0 {
				return []float64{1}
			}
			out := make([]float64, len(raw))
			sum := 0.0
			for i, v := range raw {
				out[i] = float64(v)
				sum += float64(v)
			}
			if sum == 0 {
				out[0] = 1
				sum = 1
			}
			for i := range out {
				out[i] /= sum
			}
			return out
		}
		p, q := norm(a), norm(b)
		tv, vt := totalVariation(p, q), totalVariation(q, p)
		return math.Abs(tv-vt) < 1e-12 && tv >= 0 && tv <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: histogram relative frequencies over the full observed range
// sum to 1.
func TestQuickRelFreqSumsToOne(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewIntHistogram()
		maxV := 0
		for _, v := range vals {
			h.Add(int(v))
			if int(v) > maxV {
				maxV = int(v)
			}
		}
		sum := 0.0
		for _, f := range h.RelFreq(maxV) {
			sum += f
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKolmogorovSmirnov(t *testing.T) {
	f := []float64{0.2, 0.5, 1}
	g := []float64{0.1, 0.9, 1}
	if got := KolmogorovSmirnov(f, g); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("KS = %v, want 0.4", got)
	}
	if got := KolmogorovSmirnov(f, f); got != 0 {
		t.Errorf("KS(f, f) = %v, want 0", got)
	}
	// Length mismatch: missing entries are zero.
	if got := KolmogorovSmirnov([]float64{1}, []float64{1, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("KS padded = %v, want 1", got)
	}
}

func TestKSCritical99(t *testing.T) {
	if got := KSCritical99(1000); math.Abs(got-0.05155) > 1e-4 {
		t.Errorf("critical = %v, want ≈0.0515", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n < 1")
		}
	}()
	KSCritical99(0)
}

// Package stats provides the empirical statistics the evaluation harness
// needs to compare Monte-Carlo simulation output against the paper's
// analytical predictions: summary moments, integer histograms with
// relative and cumulative frequencies (Figs. 7, 8, 11, 12), and the
// Kolmogorov–Smirnov distance as the sim-vs-theory agreement metric.
package stats

import (
	"fmt"
	"math"
)

// Summary holds the usual scalar statistics of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // unbiased (n−1) sample variance
	Std      float64
	Min      float64
	Max      float64
}

// summarize computes a Summary. An empty sample yields an error rather
// than NaN soup.
func summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, fmt.Errorf("stats: cannot summarize an empty sample")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Variance = ss / float64(s.N-1)
		s.Std = math.Sqrt(s.Variance)
	}
	return s, nil
}

// SummarizeInts converts and summarizes an integer sample.
func SummarizeInts(xs []int) (Summary, error) {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return summarize(fs)
}

// IntHistogram counts occurrences of small non-negative integer outcomes
// (e.g. total infections per Monte-Carlo run).
type IntHistogram struct {
	counts map[int]int
	total  int
	min    int
	max    int
}

// NewIntHistogram returns an empty histogram.
func NewIntHistogram() *IntHistogram {
	return &IntHistogram{counts: make(map[int]int)}
}

// Add records one observation. Negative values are rejected with a panic
// (the library only histograms counts).
func (h *IntHistogram) Add(v int) {
	if v < 0 {
		panic(fmt.Sprintf("stats: IntHistogram.Add(%d): negative", v))
	}
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[v]++
	h.total++
}

// Range returns the smallest and largest observed values; ok is false
// for an empty histogram.
func (h *IntHistogram) Range() (lo, hi int, ok bool) {
	if h.total == 0 {
		return 0, 0, false
	}
	return h.min, h.max, true
}

// RelFreq returns the relative frequency of each value 0..kMax as a
// dense slice: the empirical PMF plotted against the Borel–Tanner PMF in
// Figs. 7 and 11.
func (h *IntHistogram) RelFreq(kMax int) []float64 {
	out := make([]float64, kMax+1)
	if h.total == 0 {
		return out
	}
	for v, c := range h.counts {
		if v <= kMax {
			out[v] = float64(c) / float64(h.total)
		}
	}
	return out
}

// CumFreq returns the cumulative relative frequency for 0..kMax: the
// empirical CDF of Figs. 8 and 12.
func (h *IntHistogram) CumFreq(kMax int) []float64 {
	rel := h.RelFreq(kMax)
	running := 0.0
	for i, v := range rel {
		running += v
		rel[i] = running
	}
	// Observations above kMax keep the terminal value below 1, which is
	// the honest empirical CDF at kMax.
	return rel
}

// KolmogorovSmirnov returns the Kolmogorov–Smirnov statistic
// sup_k |F(k) − G(k)| between two CDFs given as dense slices over the
// same support grid; shorter slices are padded with zeros. It is the
// sim-vs-theory agreement metric of the Fig. 7/8/11/12 reproductions
// (per-point total variation drowns in sampling noise over wide
// supports; the CDF sup-norm does not).
func KolmogorovSmirnov(f, g []float64) float64 {
	n := len(f)
	if len(g) > n {
		n = len(g)
	}
	ks := 0.0
	for i := 0; i < n; i++ {
		var fi, gi float64
		if i < len(f) {
			fi = f[i]
		}
		if i < len(g) {
			gi = g[i]
		}
		if d := math.Abs(fi - gi); d > ks {
			ks = d
		}
	}
	return ks
}

// KSCritical99 returns the asymptotic 99% critical value of the
// one-sample KS statistic at sample size n: 1.63/√n. An empirical CDF
// from n i.i.d. samples of the theory distribution exceeds it with
// probability ~1%.
func KSCritical99(n int) float64 {
	if n < 1 {
		panic("stats: KSCritical99 requires n >= 1")
	}
	return 1.63 / math.Sqrt(float64(n))
}

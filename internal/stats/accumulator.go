package stats

import (
	"fmt"
	"math"
)

// Accumulator computes summary statistics of a sample in one streaming
// pass without retaining the observations: count, mean, variance
// (Welford's online update, numerically stable), min and max. It is the
// reducer-side companion of the parallel replication engine — per-worker
// partials can be combined with Merge (the Chan–Golub–LeVeque pairwise
// formula), and merging partials in any grouping yields the same moments
// as a single serial pass.
//
// The zero value is an empty accumulator ready for use. An Accumulator
// is not safe for concurrent use; give each goroutine its own and Merge
// them, or Add from a single reducer goroutine.
type Accumulator struct {
	n    int
	mean float64
	m2   float64 // sum of squared deviations from the running mean
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	if a.n == 0 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// AddInt folds one integer observation into the accumulator.
func (a *Accumulator) AddInt(v int) { a.Add(float64(v)) }

// merge folds another accumulator's statistics into a, as if every
// observation b saw had been Added to a. b is not modified. Merging is
// commutative and associative up to floating-point rounding.
func (a *Accumulator) merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	na, nb := float64(a.n), float64(b.n)
	delta := b.mean - a.mean
	n := na + nb
	a.mean += delta * nb / n
	a.m2 += b.m2 + delta*delta*na*nb/n
	a.n += b.n
}

// Summary converts the accumulated moments to the same Summary that
// Summarize computes from a retained sample. An empty accumulator is an
// error, matching Summarize on an empty slice.
func (a *Accumulator) Summary() (Summary, error) {
	if a.n == 0 {
		return Summary{}, fmt.Errorf("stats: cannot summarize an empty accumulator")
	}
	s := Summary{N: a.n, Mean: a.mean, Min: a.min, Max: a.max}
	if a.n > 1 {
		s.Variance = a.m2 / float64(a.n-1)
		s.Std = math.Sqrt(s.Variance)
	}
	return s, nil
}

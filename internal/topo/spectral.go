package topo

import "math"

// Spectral-radius computation: λ₁ of the adjacency matrix is the knob
// the Draief/Ganesh/Massoulié epidemic threshold turns on — an SIR
// contact process with per-edge infection rate β and per-host recovery
// rate δ dies out quickly when β/δ·λ₁ < 1 and goes macroscopic above
// it. Power iteration is the right tool here: one CSR mat-vec is O(E)
// with perfect locality (no dense matrix ever materializes, so a
// 10M-host graph stays in its ~hundreds-of-MB slabs), the adjacency
// matrix of a connected graph has a simple nonnegative Perron
// eigenvector that the all-ones start vector always overlaps, and the
// iteration is deterministic — no randomized restarts to seed.
//
// One subtlety: trees (and any bipartite graph) have a symmetric
// spectrum, ±λ₁ both present, which makes plain power iteration
// oscillate between the two extreme eigenvectors instead of
// converging. Iterating on A+I shifts the spectrum to [1-λ₁, 1+λ₁]
// without moving the eigenvectors, so the dominant eigenvalue is
// unique again; the returned value is λ₁(A+I) - 1.

const (
	// spectralTol is the relative Rayleigh-quotient convergence bound.
	spectralTol = 1e-10
	// spectralMaxIter caps the iteration count; graphs with a tiny
	// spectral gap converge slowly but every caller in this repository
	// is far from the cap.
	spectralMaxIter = 10_000
)

// SpectralRadius estimates the largest adjacency eigenvalue λ₁ by
// power iteration on A+I, returning the estimate and the number of
// iterations performed. The result is deterministic: fixed start
// vector, fixed summation order.
func (g *Graph) SpectralRadius() (lambda1 float64, iters int) {
	n := g.N()
	x := make([]float64, n)
	y := make([]float64, n)
	norm := 1 / math.Sqrt(float64(n))
	for i := range x {
		x[i] = norm
	}
	prev := math.Inf(-1)
	for iters = 1; iters <= spectralMaxIter; iters++ {
		// y = (A+I)x, one pass over the CSR slabs.
		for i := 0; i < n; i++ {
			s := x[i]
			for _, j := range g.neighbors(i) {
				s += x[j]
			}
			y[i] = s
		}
		// Rayleigh quotient x·y / x·x; x is unit-norm by construction.
		rq := 0.0
		for i := range x {
			rq += x[i] * y[i]
		}
		lambda1 = rq - 1
		if math.Abs(rq-prev) <= spectralTol*math.Max(1, math.Abs(rq)) {
			return lambda1, iters
		}
		prev = rq
		// Normalize y into x for the next round.
		ss := 0.0
		for i := range y {
			ss += y[i] * y[i]
		}
		inv := 1 / math.Sqrt(ss)
		for i := range y {
			x[i] = y[i] * inv
		}
	}
	return lambda1, spectralMaxIter
}

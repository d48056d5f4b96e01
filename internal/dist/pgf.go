package dist

import (
	"fmt"
	"math"
)

// Offspring is a per-individual offspring distribution of a Galton–Watson
// branching process: everything the extinction analysis of Section III-B
// needs. Both Binomial (the exact worm offspring law of Eq. (2)) and
// Poisson (its small-p approximation) implement it.
type Offspring interface {
	// mean returns E[ξ], the expected number of offspring. By the
	// classical branching-process theorem (and Proposition 1 of the
	// paper) extinction is certain iff mean() <= 1.
	mean() float64

	// pgf evaluates the probability generating function
	// φ(s) = E[s^ξ] at s in [0, 1].
	pgf(s float64) float64
}

var (
	_ Offspring = Binomial{}
	_ Offspring = Poisson{}
)

// ExtinctionByGeneration returns P_n = P{I_n = 0} for n = 0..gens, the
// probability that the worm has died out by generation n, starting from
// i0 initially infected hosts. This is the quantity plotted in Fig. 3.
//
// It implements the PGF recursion of Section III-B: with φ the offspring
// PGF, φ_{n+1}(s) = φ_n(φ(s)) and P_n = φ_n(0), so the sequence is
// obtained by iterating s → φ(s) from s = 0 and raising to the i0-th
// power (independent initial lineages each die out independently).
//
// The returned slice has gens+1 entries; entry 0 is P_0 = 0 for i0 >= 1
// (the initial hosts are infected by definition).
func ExtinctionByGeneration(off Offspring, i0, gens int) ([]float64, error) {
	if i0 < 1 {
		return nil, fmt.Errorf("dist: extinction requires i0 >= 1, got %d", i0)
	}
	if gens < 0 {
		return nil, fmt.Errorf("dist: extinction requires gens >= 0, got %d", gens)
	}
	out := make([]float64, gens+1)
	s := 0.0
	out[0] = math.Pow(s, float64(i0)) // 0 for i0 >= 1
	for n := 1; n <= gens; n++ {
		s = off.pgf(s)
		out[n] = math.Pow(s, float64(i0))
	}
	return out, nil
}

// extinctionProbability returns π = P{worm dies out eventually} for a
// single initial lineage: the smallest non-negative fixed point of the
// offspring PGF. For Mean() <= 1 this is exactly 1 (Proposition 1); for
// Mean() > 1 it is the unique root in [0, 1), located here by fixed-point
// iteration from 0, which converges monotonically.
//
// For i0 initial hosts the overall extinction probability is π^i0; use
// ExtinctionProbabilityN for that.
func extinctionProbability(off Offspring) float64 {
	if off.mean() <= 1 {
		return 1
	}
	const (
		maxIter = 100000
		tol     = 1e-15
	)
	s := 0.0
	for i := 0; i < maxIter; i++ {
		next := off.pgf(s)
		if math.Abs(next-s) < tol {
			return next
		}
		s = next
	}
	return s
}

// ExtinctionProbabilityN returns the probability that a process started
// from i0 independent initial individuals eventually dies out: π^i0.
func ExtinctionProbabilityN(off Offspring, i0 int) float64 {
	if i0 < 1 {
		panic("dist: ExtinctionProbabilityN requires i0 >= 1")
	}
	return math.Pow(extinctionProbability(off), float64(i0))
}

// generationsToExtinction returns the smallest generation n with
// P_n >= prob, or (0, false) if not reached within maxGens. It answers
// design questions such as "how many generations until the worm is dead
// with probability 0.99 at this M?" — the operational reading of Fig. 3.
func generationsToExtinction(off Offspring, i0 int, prob float64, maxGens int) (int, bool) {
	if prob < 0 || prob > 1 {
		panic("dist: GenerationsToExtinction requires prob in [0, 1]")
	}
	probs, err := ExtinctionByGeneration(off, i0, maxGens)
	if err != nil {
		panic(err) // parameter misuse, not a data condition
	}
	for n, p := range probs {
		if p >= prob {
			return n, true
		}
	}
	return 0, false
}

// Package dist implements the probability distributions and generating-
// function machinery behind the branching-process worm model of Sellke,
// Shroff and Bagchi (DSN 2005): the Binomial(M, p) offspring law of
// Eq. (2), its Poisson(λ = M·p) approximation, the Borel–Tanner total-
// progeny distribution of Eq. (4), and the probability-generating-function
// iteration used to compute per-generation extinction probabilities
// (Fig. 3). It also provides the auxiliary samplers (lognormal, Zipf)
// used by the synthetic traffic-trace generator.
//
// Everything works in log space where overflow threatens: the paper's
// parameter regime has M up to tens of thousands and k up to a few
// hundred, so naive factorials would overflow float64 almost immediately.
package dist

import "math"

// lanczosG and lanczosCoef parameterize the Lanczos approximation of the
// gamma function (g = 7, n = 9), accurate to ~15 significant digits over
// the positive reals.
const lanczosG = 7

var lanczosCoef = [9]float64{
	0.99999999999980993,
	676.5203681218851,
	-1259.1392167224028,
	771.32342877765313,
	-176.61502916214059,
	12.507343278686905,
	-0.13857109526572012,
	9.9843695780195716e-6,
	1.5056327351493116e-7,
}

// logGamma returns ln Γ(x) for x > 0. It panics for x <= 0: the library
// only ever needs the log-gamma of positive arguments (factorials and
// binomial coefficients), so a negative or zero argument is a programming
// error, not a data condition.
func logGamma(x float64) float64 {
	if x <= 0 {
		panic("dist: LogGamma requires x > 0")
	}
	if x < 0.5 {
		// Reflection formula: Γ(x)Γ(1−x) = π / sin(πx).
		return math.Log(math.Pi/math.Sin(math.Pi*x)) - logGamma(1-x)
	}
	x--
	a := lanczosCoef[0]
	t := x + lanczosG + 0.5
	for i := 1; i < len(lanczosCoef); i++ {
		a += lanczosCoef[i] / (x + float64(i))
	}
	return 0.5*math.Log(2*math.Pi) + (x+0.5)*math.Log(t) - t + math.Log(a)
}

// logFactorial returns ln(n!) for n >= 0. Values up to n = 170 come from
// a precomputed table (exact to float64 precision); larger n uses
// logGamma(n+1).
func logFactorial(n int) float64 {
	if n < 0 {
		panic("dist: LogFactorial requires n >= 0")
	}
	if n < len(logFactTable) {
		return logFactTable[n]
	}
	return logGamma(float64(n) + 1)
}

// logFactTable caches ln(n!) for small n. Built once at package load from
// exact running sums of logs, which is deterministic and I/O-free.
var logFactTable = buildLogFactTable()

func buildLogFactTable() [171]float64 {
	var t [171]float64
	for n := 2; n < len(t); n++ {
		t[n] = t[n-1] + math.Log(float64(n))
	}
	return t
}

// logChoose returns ln C(n, k), the log binomial coefficient, for
// 0 <= k <= n. Out-of-range k yields -Inf (the coefficient is zero).
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	return logFactorial(n) - logFactorial(k) - logFactorial(n-k)
}

package dist_test

import (
	"fmt"

	"wormcontain/internal/dist"
)

// ExampleBorelTanner computes the paper's Eq. (4) statistics for Code
// Red with the rounded λ = 0.83 the paper uses in Section V.
func ExampleBorelTanner() {
	bt, err := dist.NewBorelTanner(0.83, 10)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("E[I] = %.0f\n", bt.Mean())
	fmt.Printf("paper Var formula = %.0f\n", bt.VarPaper())
	fmt.Printf("P{I > 150} = %.3f\n", bt.Survival(150))
	// Output:
	// E[I] = 59
	// paper Var formula = 2035
	// P{I > 150} = 0.038
}

// ExampleExtinctionByGeneration iterates the offspring PGF to get the
// per-generation extinction probabilities of Fig. 3.
func ExampleExtinctionByGeneration() {
	offspring := dist.Binomial{N: 5000, P: 360000.0 / (1 << 32)} // Code Red, M=5000
	probs, err := dist.ExtinctionByGeneration(offspring, 1, 5)
	if err != nil {
		fmt.Println(err)
		return
	}
	for n, p := range probs {
		fmt.Printf("P_%d = %.3f\n", n, p)
	}
	// Output:
	// P_0 = 0.000
	// P_1 = 0.658
	// P_2 = 0.866
	// P_3 = 0.946
	// P_4 = 0.977
	// P_5 = 0.991
}

// ExampleExtinctionProbabilityN evaluates Proposition 1 on both sides of
// the threshold, from one initial infection, with the model's
// Binomial(M, p) offspring at M = 10 000 (λ = M·p).
func ExampleExtinctionProbabilityN() {
	subcritical := dist.Binomial{N: 10000, P: 0.9 / 10000}
	supercritical := dist.Binomial{N: 10000, P: 3.0 / 10000}
	fmt.Printf("λ=0.9: π = %.3f\n", dist.ExtinctionProbabilityN(subcritical, 1))
	fmt.Printf("λ=3.0: π = %.3f\n", dist.ExtinctionProbabilityN(supercritical, 1))
	// Output:
	// λ=0.9: π = 1.000
	// λ=3.0: π = 0.059
}

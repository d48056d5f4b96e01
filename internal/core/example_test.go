package core_test

import (
	"fmt"
	"time"

	"wormcontain/internal/core"
)

// ExampleWormModel shows the Section III analysis of the Code Red worm:
// vulnerability density, Proposition 1's extinction threshold, and the
// outbreak-size distribution under a scan limit.
func ExampleWormModel() {
	worm := core.CodeRed(10000, 10) // M = 10000, I0 = 10

	fmt.Printf("density p = %.3g\n", worm.Density())
	fmt.Printf("threshold 1/p = %.0f\n", worm.ExtinctionThreshold())
	fmt.Printf("guaranteed extinction: %v\n", worm.GuaranteedExtinction())

	bt, err := worm.TotalInfections()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("P{total infections <= 150} = %.2f\n", bt.CDF(150))
	// Output:
	// density p = 8.38e-05
	// threshold 1/p = 11930
	// guaranteed extinction: true
	// P{total infections <= 150} = 0.95
}

// ExampleDesignM inverts the model: find the largest scan limit that
// keeps the outbreak under 100 hosts with 99% confidence.
func ExampleDesignM() {
	m, err := core.DesignM(core.CodeRed(0, 10), core.ContainmentTarget{
		MaxTotalInfected: 100,
		Confidence:       0.99,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("designed M = %d\n", m)
	// Output:
	// designed M = 8638
}

// ExampleLimiter demonstrates the runtime containment engine: repeat
// contacts are free, distinct destinations count, and the budget's
// exhaustion removes the host.
func ExampleLimiter() {
	start := time.Date(2005, 6, 28, 0, 0, 0, 0, time.UTC)
	lim, err := core.NewLimiter(core.LimiterConfig{
		M:     2,
		Cycle: 30 * 24 * time.Hour,
	}, start)
	if err != nil {
		fmt.Println(err)
		return
	}
	const host = 1
	fmt.Println(lim.Observe(host, 100, start)) // first distinct
	fmt.Println(lim.Observe(host, 100, start)) // repeat: free
	fmt.Println(lim.Observe(host, 200, start)) // second distinct
	fmt.Println(lim.Observe(host, 300, start)) // over budget
	fmt.Println("removed:", lim.Removed(host))
	// Output:
	// allow
	// allow
	// allow
	// deny
	// removed: true
}

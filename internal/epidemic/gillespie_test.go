package epidemic

import (
	"math"
	"testing"

	"wormcontain/internal/rng"
)

func TestStochasticSIRValidation(t *testing.T) {
	bad := []stochasticSIR{
		{Beta: -1, Gamma: 1, V: 10, I0: 1},
		{Beta: 1, Gamma: -1, V: 10, I0: 1},
		{Beta: 1, Gamma: 1, V: 0, I0: 1},
		{Beta: 1, Gamma: 1, V: 10, I0: 0},
		{Beta: 1, Gamma: 1, V: 10, I0: 11},
		{Beta: math.NaN(), Gamma: 1, V: 10, I0: 1},
	}
	for i, m := range bad {
		if err := m.validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestStochasticSIRSimulateErrors(t *testing.T) {
	m := stochasticSIR{Beta: 1e-4, Gamma: 0.1, V: 100, I0: 1}
	src := rng.NewPCG64(1, 0)
	if _, err := m.simulate(src, 0, 0); err == nil {
		t.Error("expected error for zero horizon")
	}
}

func TestStochasticSIRConservation(t *testing.T) {
	m := stochasticSIR{Beta: 2e-3, Gamma: 0.5, V: 500, I0: 5}
	src := rng.NewPCG64(2, 0)
	path, err := m.simulate(src, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := range path.Times {
		if path.S[k]+path.I[k]+path.R[k] != m.V {
			t.Fatalf("event %d: S+I+R = %d, want %d", k,
				path.S[k]+path.I[k]+path.R[k], m.V)
		}
		if path.S[k] < 0 || path.I[k] < 0 || path.R[k] < 0 {
			t.Fatalf("event %d: negative compartment", k)
		}
	}
	if k := len(path.Times); k > 1 {
		for i := 1; i < k; i++ {
			if path.Times[i] < path.Times[i-1] {
				t.Fatal("time went backwards")
			}
		}
	}
}

func TestStochasticSIREventuallyExtinct(t *testing.T) {
	// With γ > 0 and finite population every epidemic dies out.
	m := stochasticSIR{Beta: 1e-3, Gamma: 0.2, V: 300, I0: 3}
	for run := uint64(0); run < 20; run++ {
		src := rng.NewPCG64(3, run)
		size, err := m.finalSize(src, 0)
		if err != nil {
			t.Fatal(err)
		}
		if size < m.I0 || size > m.V {
			t.Fatalf("run %d: final size %d outside [I0, V]", run, size)
		}
	}
}

func TestStochasticSIRFinalSizeNeedsGamma(t *testing.T) {
	m := stochasticSIR{Beta: 1e-3, Gamma: 0, V: 100, I0: 1}
	if _, err := m.finalSize(rng.NewPCG64(4, 0), 0); err == nil {
		t.Error("expected error for gamma = 0")
	}
}

func TestStochasticSIRMeanTracksODE(t *testing.T) {
	// The CTMC mean should track the deterministic SIR in a moderately
	// large population over a short horizon.
	m := stochasticSIR{Beta: 5e-4, Gamma: 0.05, V: 2000, I0: 20}
	const (
		horizon = 10.0
		runs    = 200
	)
	sum := 0.0
	for run := uint64(0); run < runs; run++ {
		src := rng.NewPCG64(5, run)
		path, err := m.simulate(src, horizon, 0)
		if err != nil {
			t.Fatal(err)
		}
		sum += float64(path.infectedAt(horizon))
	}
	mcMean := sum / runs

	ode := sir{Beta: m.Beta, Gamma: m.Gamma, V: float64(m.V), I0: float64(m.I0)}
	tr, err := ode.integrate(horizon, 0.001, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.States[len(tr.States)-1][1]
	if math.Abs(mcMean-want) > 0.15*want {
		t.Errorf("CTMC mean I(%v) = %v, ODE %v", horizon, mcMean, want)
	}
}

func TestStochasticSIRExtinctionMatchesBranching(t *testing.T) {
	// Early-phase branching approximation: starting from I0 = 1 with
	// R0 = β·V/γ > 1, the minor-outbreak probability is ≈ 1/R0.
	m := stochasticSIR{Beta: 2e-3, Gamma: 1, V: 1000, I0: 1} // R0 = 2
	got, err := m.extinctionProbEstimate(6, 2000, 50)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / m.r0()
	if math.Abs(got-want) > 0.06 {
		t.Errorf("minor-outbreak fraction %v, branching predicts %v", got, want)
	}
}

func TestStochasticSIRDeterministicPerSeed(t *testing.T) {
	m := stochasticSIR{Beta: 1e-3, Gamma: 0.3, V: 400, I0: 4}
	a, err := m.simulate(rng.NewPCG64(7, 0), 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.simulate(rng.NewPCG64(7, 0), 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Times) != len(b.Times) {
		t.Fatalf("path lengths differ: %d vs %d", len(a.Times), len(b.Times))
	}
	for k := range a.Times {
		if a.Times[k] != b.Times[k] || a.I[k] != b.I[k] {
			t.Fatalf("paths diverge at event %d", k)
		}
	}
}

func TestStochasticSIRR0(t *testing.T) {
	m := stochasticSIR{Beta: 2e-3, Gamma: 1, V: 1000, I0: 1}
	if got := m.r0(); math.Abs(got-2) > 1e-12 {
		t.Errorf("R0 = %v, want 2", got)
	}
	m.Gamma = 0
	if !math.IsInf(m.r0(), 1) {
		t.Errorf("R0 with gamma 0 = %v, want +Inf", m.r0())
	}
}

func TestStochasticSIRFrozenWithoutRemoval(t *testing.T) {
	// γ = 0 and all susceptibles infected: absorbing state with I > 0;
	// Simulate must terminate at the horizon, not spin.
	m := stochasticSIR{Beta: 1, Gamma: 0, V: 5, I0: 1}
	path, err := m.simulate(rng.NewPCG64(8, 0), 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, s, i, _ := path.final()
	if s != 0 || i != 5 {
		t.Errorf("final state S=%d I=%d, want full infection", s, i)
	}
	if path.Extinct {
		t.Error("path with surviving infectious hosts marked extinct")
	}
}

func TestInfectedAtStepSemantics(t *testing.T) {
	p := sirPath{
		Times: []float64{0, 1, 2},
		S:     []int{9, 8, 7},
		I:     []int{1, 2, 3},
		R:     []int{0, 0, 0},
	}
	cases := []struct {
		t    float64
		want int
	}{{0, 1}, {0.5, 1}, {1, 2}, {1.9, 2}, {2, 3}, {99, 3}}
	for _, c := range cases {
		if got := p.infectedAt(c.t); got != c.want {
			t.Errorf("InfectedAt(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

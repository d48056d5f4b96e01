package experiments

import (
	"testing"
)

// TestFleetConvergenceContainsBetterThanIndependent pins the study's
// headline claim — and PR acceptance criterion: an 8-gateway
// cooperative fleet ends a seeded epidemic with strictly fewer total
// infections than 8 independent gateways watching the same streams,
// and the single-gateway baseline is (up to replication noise) the
// floor both modes share at size 1.
func TestFleetConvergenceContainsBetterThanIndependent(t *testing.T) {
	res, err := Run("fleet-convergence", Options{Seed: 7, Quick: true, Runs: 24, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var coop, solo, prop *Series
	for i := range res.Series {
		switch s := &res.Series[i]; {
		case s.Label == "mean total infections vs fleet size (cooperative fleet)":
			coop = s
		case s.Label == "mean total infections vs fleet size (independent gateways)":
			solo = s
		default:
			prop = s
		}
	}
	if coop == nil || solo == nil || prop == nil {
		t.Fatalf("missing series: %+v", res.Series)
	}
	for i, n := range fleetSizes {
		if n == 1 {
			// Same machinery at size 1: a fleet of one IS the baseline,
			// so the two modes must agree exactly.
			if coop.Y[i] != solo.Y[i] {
				t.Fatalf("size 1: cooperative %v != independent %v", coop.Y[i], solo.Y[i])
			}
			continue
		}
		if coop.Y[i] >= solo.Y[i] {
			t.Errorf("size %d: cooperative fleet %.2f infections, independent %.2f — alerts bought nothing",
				n, coop.Y[i], solo.Y[i])
		}
	}
	// Gossip lag must respect the push-budget design bound: fanout-3
	// push with ceil(log2 n)+3 rounds of budget.
	for i, n := range fleetSizes {
		if n > 1 && prop.Y[i] > 6 {
			t.Errorf("size %d: mean propagation lag %.2f rounds exceeds the push budget", n, prop.Y[i])
		}
		_ = i
	}
}

// TestFleetConvergenceWorkerInvariance extends the engine's
// worker-count contract to the fleet study: identical output for any
// worker count, because each replication owns a dedicated RNG stream
// and a private fleet.
func TestFleetConvergenceWorkerInvariance(t *testing.T) {
	eachArtifact(t, []string{"fleet-convergence"}, legsAgree)
}

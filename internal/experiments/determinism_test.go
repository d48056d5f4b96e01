package experiments

import (
	"testing"

	"wormcontain/internal/parallel"
)

// TestWorkerCountInvariance is the engine's acceptance test: for a fixed
// seed, workers=1 and a multi-worker pool must produce byte-identical
// output for every artifact — every series value, every note, in the
// same order. The catalogue checks workers=1 against workers=8 at seed
// 1 and against workers=3 at seed 1905.
func TestWorkerCountInvariance(t *testing.T) {
	eachArtifact(t, wholeCatalogue(t), legsAgree)
}

// TestMonteCarloWorkerSweep drives the headline Monte-Carlo figure
// across a wider ladder of worker counts; any divergence pins the exact
// replication that broke the stream-per-replication contract.
func TestMonteCarloWorkerSweep(t *testing.T) {
	ref, err := Run("fig7", Options{Seed: 11, Quick: true, Runs: 64, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 64} {
		got, err := Run("fig7", Options{Seed: 11, Quick: true, Runs: 64, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for si := range ref.Series {
			for k := range ref.Series[si].Y {
				if got.Series[si].Y[k] != ref.Series[si].Y[k] {
					t.Fatalf("workers=%d: series %d diverges at k=%d: %v != %v",
						workers, si, k, got.Series[si].Y[k], ref.Series[si].Y[k])
				}
			}
		}
	}
}

func TestNormalizeDefaults(t *testing.T) {
	cases := []struct {
		name     string
		in       Options
		wantRuns int
	}{
		{"zero runs defaults to the paper's 1000", Options{}, 1000},
		{"zero runs under Quick defaults to 200", Options{Quick: true}, 200},
		{"negative runs is also the sentinel", Options{Runs: -5}, 1000},
		{"explicit runs is honored", Options{Runs: 7}, 7},
		{"explicit runs beats Quick's default", Options{Runs: 7, Quick: true}, 7},
		{"explicit large runs is untouched", Options{Runs: 5000, Quick: true}, 5000},
	}
	for _, c := range cases {
		got := c.in.normalize()
		if got.Runs != c.wantRuns {
			t.Errorf("%s: Runs = %d, want %d", c.name, got.Runs, c.wantRuns)
		}
	}

	// Seed and Workers defaults.
	n := Options{}.normalize()
	if n.Seed != 20050628 {
		t.Errorf("default Seed = %d, want 20050628", n.Seed)
	}
	if n.Workers != parallel.DefaultWorkers() {
		t.Errorf("default Workers = %d, want %d", n.Workers, parallel.DefaultWorkers())
	}
	kept := Options{Seed: 9, Workers: 3}.normalize()
	if kept.Seed != 9 || kept.Workers != 3 {
		t.Errorf("explicit Seed/Workers changed: %+v", kept)
	}
	if w := (Options{Workers: -1}).normalize().Workers; w != parallel.DefaultWorkers() {
		t.Errorf("negative Workers normalized to %d, want %d", w, parallel.DefaultWorkers())
	}
}

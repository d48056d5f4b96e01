package experiments

import (
	"testing"

	"wormcontain/internal/des"
)

// TestKernelArtifactParity is the experiments-layer acceptance test for
// the timing-wheel kernel: the artifacts driven by the discrete-event
// engine must render byte-identically on the heap reference backend and
// the wheel, at every seed and worker count. Combined with
// TestGoldenArtifacts (which pins the heap output to the committed
// fingerprints), equality here pins the wheel to the goldens too.
//
// The artifact set covers one runner per DES replication style: a
// single contained outbreak (fig2), the serial full-path sampler
// (fig9), the parallel defense-comparison grid (ablation-defense), and
// the one artifact that runs background traffic (ablation-intrusiveness).
func TestKernelArtifactParity(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates several artifacts per seed and worker count")
	}
	artifacts := []string{"fig2", "fig9", "ablation-defense", "ablation-intrusiveness"}
	for _, seed := range []uint64{1, 7, 1905} {
		for _, id := range artifacts {
			ref, err := Run(id, Options{
				Seed: seed, Quick: true, Workers: 3, kernel: des.KernelHeap,
			})
			if err != nil {
				t.Fatalf("%s seed %d heap: %v", id, seed, err)
			}
			want := ref.Format()
			for _, workers := range []int{1, 3, 8} {
				got, err := Run(id, Options{
					Seed: seed, Quick: true, Workers: workers, kernel: des.KernelWheel,
				})
				if err != nil {
					t.Fatalf("%s seed %d wheel workers=%d: %v", id, seed, workers, err)
				}
				if out := got.Format(); out != want {
					t.Errorf("%s seed %d: wheel (workers=%d) output differs from heap:\n"+
						"--- heap ---\n%s\n--- wheel ---\n%s", id, seed, workers, want, out)
				}
			}
		}
	}
}

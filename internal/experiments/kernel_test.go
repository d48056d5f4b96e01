package experiments

import "testing"

// TestKernelArtifactParity is the experiments-layer acceptance test for
// the timing-wheel kernel: every artifact must render byte-identically
// on the heap reference backend and the wheel. The catalogue runs heap
// at workers=1 against wheel at workers=8 at seed 1, and wheel at
// workers=1 against heap at workers=3 at seed 1905; TestGoldenArtifacts
// pins both kernels to the committed fingerprints.
func TestKernelArtifactParity(t *testing.T) {
	eachArtifact(t, wholeCatalogue(t), legsAgree)
}

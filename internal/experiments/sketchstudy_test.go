package experiments

import "testing"

// TestSketchAccuracyGolden pins the study's formatted output
// byte-for-byte against its recorded fingerprints.
func TestSketchAccuracyGolden(t *testing.T) {
	eachArtifact(t, []string{"sketch-accuracy"}, matchGolden(readGolden(t)))
}

// TestSketchAccuracyWorkerInvariance asserts the study's acceptance
// bar: for a fixed seed the artifact is byte-identical across worker
// counts — the stream-per-replication RNG plus the in-order fold leave
// no scheduling in the output.
func TestSketchAccuracyWorkerInvariance(t *testing.T) {
	eachArtifact(t, []string{"sketch-accuracy"}, legsAgree)
}

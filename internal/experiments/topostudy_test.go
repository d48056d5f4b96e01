package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// TestTopoContainmentGolden pins the study's formatted output
// byte-for-byte against its recorded fingerprints.
func TestTopoContainmentGolden(t *testing.T) {
	eachArtifact(t, []string{"topology-containment"}, matchGolden(readGolden(t)))
}

// TestTopoContainmentWorkerInvariance asserts the acceptance bar: for a
// fixed seed the artifact is byte-identical across worker counts — the
// shared read-only graph plus stream-per-replication RNG leave no
// scheduling in the output.
func TestTopoContainmentWorkerInvariance(t *testing.T) {
	eachArtifact(t, []string{"topology-containment"}, legsAgree)
}

// TestTopoContainmentShape checks the study's structural claims on a
// live run: every topology appears in both defense curves, the M-limit
// curve sits below the undefended one for every topology, the tree
// topology's lineage degree respects the branching cap, and the
// scale-free note reports a heavier lineage tail than the tree's.
func TestTopoContainmentShape(t *testing.T) {
	res, err := Run("topology-containment", Options{Seed: 1905, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var none, limited *Series
	for i := range res.Series {
		s := &res.Series[i]
		if strings.HasPrefix(s.Label, "mean total infections") {
			if strings.Contains(s.Label, "no defense") {
				none = s
			} else {
				limited = s
			}
		}
	}
	if none == nil || limited == nil {
		t.Fatalf("headline series missing; have %d series", len(res.Series))
	}
	if len(none.Y) != 4 || len(limited.Y) != 4 {
		t.Fatalf("headline series cover %d/%d topologies, want 4", len(none.Y), len(limited.Y))
	}
	for i := range none.Y {
		if limited.Y[i] >= none.Y[i] {
			t.Errorf("topology %d: M-limit mean %.1f not below undefended %.1f",
				i, limited.Y[i], none.Y[i])
		}
		if none.Y[i] <= float64(topoStudyI0) {
			t.Errorf("topology %d: undefended mean %.1f never spread", i, none.Y[i])
		}
	}
	var treeMax, sfMax int
	for _, n := range res.Notes {
		if _, err := fmt.Sscanf(n, "tree: max infection-tree children %d", &treeMax); err == nil {
			continue
		}
		_, _ = fmt.Sscanf(n, "scalefree: max infection-tree children %d", &sfMax)
	}
	if treeMax < 1 || treeMax > 3 {
		t.Errorf("tree max lineage children %d outside [1, branching=3]", treeMax)
	}
	if sfMax <= treeMax {
		t.Errorf("scale-free max lineage children %d not above tree's %d", sfMax, treeMax)
	}
}

package topo

import (
	"testing"

	"wormcontain/internal/rng"
)

// TestTopoGraphBuild checks the CSR assembly against a hand-computed
// graph: canonical sorted rows, degrees, edge count.
func TestTopoGraphBuild(t *testing.T) {
	g, err := build("test", 5, []edge{{3, 1}, {0, 1}, {1, 2}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 || g.EdgeCount() != 4 {
		t.Fatalf("n=%d m=%d, want 5, 4", g.N(), g.EdgeCount())
	}
	want := [][]int32{{1, 2}, {0, 2, 3}, {0, 1}, {1}, {}}
	for i, row := range want {
		got := g.neighbors(i)
		if len(got) != len(row) {
			t.Fatalf("vertex %d: neighbors %v, want %v", i, got, row)
		}
		for k := range row {
			if got[k] != row[k] {
				t.Fatalf("vertex %d: neighbors %v, want %v", i, got, row)
			}
		}
		if g.Degree(i) != len(row) {
			t.Fatalf("vertex %d: degree %d, want %d", i, g.Degree(i), len(row))
		}
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("max degree %d, want 3", g.MaxDegree())
	}
	if got := g.MeanDegree(); got != 8.0/5 {
		t.Fatalf("mean degree %v, want %v", got, 8.0/5)
	}
}

// TestTopoGraphBuildCanonical asserts the CSR layout is a function of
// the edge set, not its order: permuted and endpoint-flipped edge lists
// fingerprint identically.
func TestTopoGraphBuildCanonical(t *testing.T) {
	a, err := build("test", 4, []edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := build("test", 4, []edge{{3, 2}, {0, 3}, {2, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("edge order changed the canonical CSR layout")
	}
}

// TestTopoGraphBuildErrors sweeps the construction error paths.
func TestTopoGraphBuildErrors(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []edge
	}{
		{"zero vertices", 0, nil},
		{"negative endpoint", 3, []edge{{-1, 2}}},
		{"endpoint past n", 3, []edge{{0, 3}}},
		{"self loop", 3, []edge{{1, 1}}},
		{"duplicate edge", 3, []edge{{0, 1}, {1, 0}}},
	}
	for _, c := range cases {
		if _, err := build("test", c.n, c.edges); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestTopoSample pins the neighbor sampler's contract: draws stay
// inside the neighbor row, isolated vertices report ok=false, and the
// draw sequence is a pure function of the Source.
func TestTopoSample(t *testing.T) {
	g, err := build("test", 5, []edge{{0, 1}, {0, 2}, {0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewPCG64(1, 0)
	seen := map[int32]bool{}
	for k := 0; k < 200; k++ {
		j, ok := g.Sample(src, 0)
		if !ok {
			t.Fatal("vertex 0 has neighbors")
		}
		if j < 1 || j > 3 {
			t.Fatalf("sampled %d outside vertex 0's neighbors", j)
		}
		seen[j] = true
	}
	if len(seen) != 3 {
		t.Fatalf("200 draws hit %d of 3 neighbors", len(seen))
	}
	if _, ok := g.Sample(src, 4); ok {
		t.Fatal("isolated vertex sampled a neighbor")
	}

	a, b := rng.NewPCG64(9, 3), rng.NewPCG64(9, 3)
	for k := 0; k < 50; k++ {
		x, _ := g.Sample(a, 0)
		y, _ := g.Sample(b, 0)
		if x != y {
			t.Fatal("identical sources diverged")
		}
	}
}

// TestTopoFingerprintSensitivity asserts the fingerprint separates
// graphs that differ in name, shape, or size.
func TestTopoFingerprintSensitivity(t *testing.T) {
	base, _ := build("a", 4, []edge{{0, 1}, {1, 2}})
	renamed, _ := build("b", 4, []edge{{0, 1}, {1, 2}})
	reshaped, _ := build("a", 4, []edge{{0, 1}, {1, 3}})
	grown, _ := build("a", 5, []edge{{0, 1}, {1, 2}})
	for name, other := range map[string]*Graph{
		"renamed": renamed, "reshaped": reshaped, "grown": grown,
	} {
		if base.Fingerprint() == other.Fingerprint() {
			t.Errorf("%s graph collides with base fingerprint", name)
		}
	}
}

package topo

import (
	"bytes"
	"strings"
	"testing"
)

// TestTopoAdjacencyRoundTrip is the writer/reader duality contract:
// Parse(Write(g)) reproduces g's canonical CSR for every generator
// family, and Write∘Parse is the identity on canonical bytes.
func TestTopoAdjacencyRoundTrip(t *testing.T) {
	for _, gen := range goldenGenerators() {
		g, err := gen.Generate(7)
		if err != nil {
			t.Fatal(err)
		}
		data := writeAdjacency(g)
		back, err := ParseAdjacency(data)
		if err != nil {
			t.Fatalf("%s: reparse: %v", gen.Name(), err)
		}
		if back.N() != g.N() || back.EdgeCount() != g.EdgeCount() {
			t.Fatalf("%s: round trip changed shape: %d/%d -> %d/%d",
				gen.Name(), g.N(), g.EdgeCount(), back.N(), back.EdgeCount())
		}
		if !bytes.Equal(writeAdjacency(back), data) {
			t.Errorf("%s: Write∘Parse is not the identity on canonical bytes", gen.Name())
		}
	}
}

// TestTopoAdjacencyParseLenient accepts comments, blank lines and
// loose whitespace; the reparse lands on the same canonical graph.
func TestTopoAdjacencyParseLenient(t *testing.T) {
	loose := "# enterprise pod\n\nwormtopo v1   4   3\n 0\t1 \n# cross link\n2 1\n\n3   0\n"
	g, err := ParseAdjacency([]byte(loose))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.EdgeCount() != 3 {
		t.Fatalf("parsed %d/%d, want 4/3", g.N(), g.EdgeCount())
	}
	canonical, err := ParseAdjacency(writeAdjacency(g))
	if err != nil {
		t.Fatal(err)
	}
	if canonical.Fingerprint() != g.Fingerprint() {
		t.Fatal("lenient parse and canonical reparse disagree")
	}
}

// TestTopoAdjacencyParseErrors sweeps every rejection path: bad
// headers, dangling endpoints, self-loops, duplicates, count
// mismatches and trailing garbage. None may panic.
func TestTopoAdjacencyParseErrors(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"empty", "", "empty"},
		{"comments only", "# nothing\n\n", "empty"},
		{"bad magic", "wormtopo v2 3 1\n0 1\n", "bad header"},
		{"missing counts", "wormtopo v1 3\n", "bad header"},
		{"zero vertices", "wormtopo v1 0 0\n", "bad vertex count"},
		{"negative vertices", "wormtopo v1 -2 0\n", "bad vertex count"},
		{"huge vertices", "wormtopo v1 99999999999999999999 0\n", "bad vertex count"},
		{"negative edges", "wormtopo v1 3 -1\n", "bad edge count"},
		{"dangling endpoint", "wormtopo v1 3 1\n0 3\n", "outside"},
		{"negative endpoint", "wormtopo v1 3 1\n-1 2\n", "outside"},
		{"non-numeric endpoint", "wormtopo v1 3 1\n0 x\n", "outside"},
		{"one endpoint", "wormtopo v1 3 1\n0\n", "two endpoints"},
		{"three endpoints", "wormtopo v1 3 1\n0 1 2\n", "two endpoints"},
		{"self loop", "wormtopo v1 3 1\n1 1\n", "self-loop"},
		{"duplicate edge", "wormtopo v1 3 2\n0 1\n1 0\n", "duplicate"},
		{"too few edges", "wormtopo v1 3 2\n0 1\n", "promises 2 edges"},
		{"trailing garbage", "wormtopo v1 3 1\n0 1\n2 0\n", "trailing"},
	}
	for _, c := range cases {
		g, err := ParseAdjacency([]byte(c.data))
		if err == nil {
			t.Errorf("%s: parsed %d-vertex graph, expected error", c.name, g.N())
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestTopoAdjacencyEdgeless covers the m=0 corner: legal, and the
// graph has isolated vertices only.
func TestTopoAdjacencyEdgeless(t *testing.T) {
	g, err := ParseAdjacency([]byte("wormtopo v1 3 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.EdgeCount() != 0 || g.MaxDegree() != 0 {
		t.Fatalf("edgeless graph parsed as %d/%d", g.N(), g.EdgeCount())
	}
	if !bytes.Equal(writeAdjacency(g), []byte("wormtopo v1 3 0\n")) {
		t.Fatal("edgeless canonical form drifted")
	}
}

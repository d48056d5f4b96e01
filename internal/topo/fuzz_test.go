package topo

import (
	"bytes"
	"testing"
)

// FuzzAdjacencyParser drives the explicit-adjacency parser with
// arbitrary bytes. Contract under fuzzing:
//
//   - never panic, whatever the input;
//   - any accepted input yields a structurally valid graph (no
//     dangling endpoints, no self-loops, no duplicates — revalidated
//     here against the CSR);
//   - writer/reader duality: the canonical rendering of an accepted
//     graph reparses to the identical fingerprint, and a second
//     Write∘Parse is the identity on bytes.
func FuzzAdjacencyParser(f *testing.F) {
	f.Add([]byte("wormtopo v1 4 3\n0 1\n1 2\n2 3\n"))
	f.Add([]byte("wormtopo v1 3 0\n"))
	f.Add([]byte("# comment\nwormtopo v1 2 1\n0 1\n"))
	f.Add([]byte("wormtopo v1 3 1\n0 3\n"))
	f.Add([]byte("wormtopo v1 1 0\n"))
	f.Add([]byte("wormtopo v2 1 0\n"))
	f.Add([]byte("wormtopo v1 -1 -1\n"))
	f.Add([]byte(""))
	for _, gen := range []Generator{
		Tree{N: 30, Branching: 2},
		ScaleFree{N: 30, Attach: 2},
		SmallWorld{N: 30, K: 4, Rewire: 0.2},
	} {
		g, err := gen.Generate(1)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(writeAdjacency(g))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseAdjacency(data)
		if err != nil {
			return
		}
		n := int32(g.N())
		seen := map[uint64]bool{}
		for u := int32(0); u < n; u++ {
			prev := int32(-1)
			for _, v := range g.neighbors(int(u)) {
				if v < 0 || v >= n {
					t.Fatalf("accepted graph has dangling endpoint %d (n=%d)", v, n)
				}
				if v == u {
					t.Fatalf("accepted graph has self-loop at %d", u)
				}
				if v <= prev {
					t.Fatalf("vertex %d row not strictly sorted", u)
				}
				prev = v
				if u < v {
					seen[uint64(u)<<32|uint64(uint32(v))] = true
				}
			}
		}
		if len(seen) != g.EdgeCount() {
			t.Fatalf("edge count %d, distinct edges %d", g.EdgeCount(), len(seen))
		}

		canonical := writeAdjacency(g)
		back, err := ParseAdjacency(canonical)
		if err != nil {
			t.Fatalf("canonical rendering rejected: %v", err)
		}
		if back.Fingerprint() != g.Fingerprint() {
			t.Fatal("canonical reparse changed the graph")
		}
		if !bytes.Equal(writeAdjacency(back), canonical) {
			t.Fatal("Write∘Parse is not the identity on canonical bytes")
		}
	})
}

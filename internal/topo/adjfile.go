package topo

import (
	"fmt"
	"strconv"
	"strings"
)

// Explicit-adjacency file format, version 1:
//
//	# comments and blank lines are ignored
//	wormtopo v1 <n> <m>
//	<u> <v>
//	...          (exactly m edge lines, 0-based endpoints, u != v)
//
// The parser is strict where it matters for safety — endpoints must
// lie in [0, n), self-loops and duplicate edges are rejected, the edge
// count must match the header — and lenient about whitespace and
// comments. writeAdjacency emits the canonical rendering (each edge
// once with u < v, in CSR row order), so Write∘Parse∘Write is the
// identity on bytes: the round-trip duality the fuzz target pins.

// adjHeader is the format magic of version 1.
const adjHeader = "wormtopo v1"

// ParseAdjacency parses the explicit-adjacency format into a canonical
// graph named "file". It never panics on malformed input.
func ParseAdjacency(data []byte) (*Graph, error) {
	lines := strings.Split(string(data), "\n")
	next := 0
	nextLine := func() (string, bool) {
		for next < len(lines) {
			ln := strings.TrimSpace(lines[next])
			next++
			if ln == "" || strings.HasPrefix(ln, "#") {
				continue
			}
			return ln, true
		}
		return "", false
	}

	head, ok := nextLine()
	if !ok {
		return nil, fmt.Errorf("topo: adjacency file is empty")
	}
	fields := strings.Fields(head)
	if len(fields) != 4 || fields[0]+" "+fields[1] != adjHeader {
		return nil, fmt.Errorf("topo: bad header %q, want %q <n> <m>", head, adjHeader)
	}
	n, err := strconv.ParseInt(fields[2], 10, 32)
	if err != nil || n < 1 {
		return nil, fmt.Errorf("topo: bad vertex count %q", fields[2])
	}
	m, err := strconv.ParseInt(fields[3], 10, 32)
	if err != nil || m < 0 {
		return nil, fmt.Errorf("topo: bad edge count %q", fields[3])
	}

	edges := make([]edge, 0, m)
	for int64(len(edges)) < m {
		ln, ok := nextLine()
		if !ok {
			return nil, fmt.Errorf("topo: header promises %d edges, file has %d", m, len(edges))
		}
		ef := strings.Fields(ln)
		if len(ef) != 2 {
			return nil, fmt.Errorf("topo: bad edge line %q, want two endpoints", ln)
		}
		u, err := strconv.ParseInt(ef[0], 10, 32)
		if err != nil || u < 0 || u >= n {
			return nil, fmt.Errorf("topo: edge line %q: endpoint %q outside [0, %d)", ln, ef[0], n)
		}
		v, err := strconv.ParseInt(ef[1], 10, 32)
		if err != nil || v < 0 || v >= n {
			return nil, fmt.Errorf("topo: edge line %q: endpoint %q outside [0, %d)", ln, ef[1], n)
		}
		edges = append(edges, edge{int32(u), int32(v)})
	}
	if extra, ok := nextLine(); ok {
		return nil, fmt.Errorf("topo: trailing content %q after %d edges", extra, m)
	}
	return build("file", int(n), edges)
}

// writeAdjacency renders the graph in the canonical version-1 format:
// header, then every edge exactly once as "<u> <v>" with u < v, in CSR
// row order. Because the CSR layout is itself canonical, the output is
// a pure function of the edge set.
func writeAdjacency(g *Graph) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d %d\n", adjHeader, g.N(), g.EdgeCount())
	for u, n := 0, g.N(); u < n; u++ {
		for _, v := range g.neighbors(u) {
			if int32(u) < v {
				fmt.Fprintf(&b, "%d %d\n", u, v)
			}
		}
	}
	return []byte(b.String())
}

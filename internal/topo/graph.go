// Package topo provides graph-structured propagation topologies for the
// worm simulator: everything simulated before this package scanned a
// flat 2^32 address space, so preference scanning, quarantine and the
// paper's M-limit had only ever been compared under uniform scanning.
// Here realistic contact structures — enterprise subnet trees,
// power-law/scale-free graphs, Watts–Strogatz small worlds, and explicit
// adjacency loaded from a file — become *testable* scenarios:
//
//   - Graph stores adjacency in a compressed-sparse-row (CSR) layout so
//     the simulator's scan hot path samples a uniform random neighbor
//     with two offset loads and one bounded draw, zero allocations.
//
//   - SpectralRadius computes λ₁ of the adjacency matrix by power
//     iteration, so experiments can place the infection/recovery ratio
//     β/δ analytically above or below the epidemic threshold of Draief,
//     Ganesh and Massoulié ("Thresholds for virus spread on networks"):
//     sub-threshold (β/δ·λ₁ < 1) outbreaks die out with bounded size,
//     super-threshold ones reach a macroscopic fraction.
//
//   - AnalyzeInfectionTree turns the simulator's infection lineage into
//     the structure metrics of Wang, Chen and Chen ("Characterizing
//     Internet Worm Infection Structure"): generation sizes and the
//     degree distribution of the infection tree.
//
// Every generator is seeded through internal/rng, so identical seeds
// yield identical graphs — byte for byte, at any worker count.
package topo

import (
	"fmt"
	"hash/fnv"
	"sort"

	"wormcontain/internal/rng"
)

// Graph is an undirected simple graph in compressed-sparse-row form:
// the neighbors of vertex i are targets[offsets[i]:offsets[i+1]], each
// row sorted ascending. The layout is canonical — a function of the
// edge set alone, not of insertion order — which is what makes graph
// fingerprints, adjacency-file round trips and cross-worker replays
// byte-comparable. Vertices are int32 to keep the slabs compact: a
// 10M-host graph of mean degree 6 is ~280 MB of int32s, half what
// 64-bit indices would cost.
type Graph struct {
	name    string
	offsets []int32 // len N()+1
	targets []int32 // len 2*EdgeCount(), both directions of every edge
}

// edge is one undirected edge during construction.
type edge struct{ u, v int32 }

// build assembles the canonical CSR graph from an edge list. It
// validates endpoints (0 <= u,v < n, u != v) and rejects duplicate
// edges; construction is a counting sort plus per-row ordering, so the
// result is deterministic for any input edge order.
func build(name string, n int, edges []edge) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("topo: graph needs n >= 1, got %d", n)
	}
	if n > 1<<31-2 {
		return nil, fmt.Errorf("topo: n = %d exceeds int32 vertex ids", n)
	}
	g := &Graph{
		name:    name,
		offsets: make([]int32, n+1),
		targets: make([]int32, 2*len(edges)),
	}
	for _, e := range edges {
		if e.u < 0 || int(e.u) >= n || e.v < 0 || int(e.v) >= n {
			return nil, fmt.Errorf("topo: edge (%d, %d) endpoint outside [0, %d)", e.u, e.v, n)
		}
		if e.u == e.v {
			return nil, fmt.Errorf("topo: self-loop at vertex %d", e.u)
		}
		g.offsets[e.u+1]++
		g.offsets[e.v+1]++
	}
	for i := 1; i <= n; i++ {
		g.offsets[i] += g.offsets[i-1]
	}
	cursor := make([]int32, n)
	for _, e := range edges {
		g.targets[g.offsets[e.u]+cursor[e.u]] = e.v
		cursor[e.u]++
		g.targets[g.offsets[e.v]+cursor[e.v]] = e.u
		cursor[e.v]++
	}
	for i := 0; i < n; i++ {
		row := g.targets[g.offsets[i]:g.offsets[i+1]]
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		for k := 1; k < len(row); k++ {
			if row[k] == row[k-1] {
				return nil, fmt.Errorf("topo: duplicate edge (%d, %d)", i, row[k])
			}
		}
	}
	return g, nil
}

// N returns the vertex count.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int { return len(g.targets) / 2 }

// Degree returns vertex i's neighbor count.
func (g *Graph) Degree(i int) int {
	return int(g.offsets[i+1] - g.offsets[i])
}

// neighbors returns vertex i's sorted neighbor row. The slice aliases
// the CSR slab — callers must not modify it — and costs no allocation,
// which is what the simulator's scan hot path relies on.
func (g *Graph) neighbors(i int) []int32 {
	return g.targets[g.offsets[i]:g.offsets[i+1]]
}

// Sample draws a uniform random neighbor of vertex i from src. ok is
// false when i is isolated. This is the graph-mode scan target sampler:
// two offset loads, one bounded draw, zero allocations.
func (g *Graph) Sample(src rng.Source, i int) (int32, bool) {
	row := g.targets[g.offsets[i]:g.offsets[i+1]]
	if len(row) == 0 {
		return 0, false
	}
	return row[rng.Intn(src, len(row))], true
}

// MaxDegree returns the largest vertex degree (0 for an edgeless graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for i, n := 0, g.N(); i < n; i++ {
		if d := g.Degree(i); d > max {
			max = d
		}
	}
	return max
}

// MeanDegree returns the average vertex degree.
func (g *Graph) MeanDegree() float64 {
	return float64(len(g.targets)) / float64(g.N())
}

// Fingerprint hashes the canonical CSR layout (name, offsets, targets)
// with FNV-1a. Two graphs are byte-identical exactly when their
// fingerprints match; the golden determinism tests pin generator output
// with it.
func (g *Graph) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write([]byte(g.name))
	var b [4]byte
	put := func(v int32) {
		b[0] = byte(v)
		b[1] = byte(v >> 8)
		b[2] = byte(v >> 16)
		b[3] = byte(v >> 24)
		h.Write(b[:])
	}
	for _, v := range g.offsets {
		put(v)
	}
	for _, v := range g.targets {
		put(v)
	}
	return h.Sum64()
}

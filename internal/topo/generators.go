package topo

import (
	"fmt"

	"wormcontain/internal/rng"
)

// Generator builds a graph from a seed. Implementations are pure: the
// same parameters and seed always produce the identical canonical
// graph, independent of worker count or call history, because each
// Generate call derives a private PCG64 stream from the seed.
type Generator interface {
	// Name identifies the topology family ("tree", "scalefree", ...).
	Name() string
	// Generate builds the graph for the given seed.
	Generate(seed uint64) (*Graph, error)
}

// Generator stream ids: each random family draws from its own PCG64
// stream so adding a draw to one generator can never shift another's
// output. Tree draws nothing.
const (
	streamScaleFree  = 0x7331 // "s1"
	streamSmallWorld = 0x7731 // "w1"
)

// Tree is the enterprise-subnet topology: a complete B-ary tree rooted
// at vertex 0 (vertex i's parent is (i-1)/B), modelling a hierarchy of
// gateway, department switches and leaf subnets. The layout is fully
// determined by N and Branching; the seed is accepted for interface
// uniformity and ignored.
type Tree struct {
	N         int
	Branching int
}

var _ Generator = Tree{}

// Name implements Generator.
func (Tree) Name() string { return "tree" }

// Generate builds the complete Branching-ary tree on N vertices.
func (t Tree) Generate(uint64) (*Graph, error) {
	if t.Branching < 1 {
		return nil, fmt.Errorf("topo: tree branching %d, must be >= 1", t.Branching)
	}
	if t.N < 2 {
		return nil, fmt.Errorf("topo: tree needs n >= 2, got %d", t.N)
	}
	edges := make([]edge, 0, t.N-1)
	for i := 1; i < t.N; i++ {
		edges = append(edges, edge{int32((i - 1) / t.Branching), int32(i)})
	}
	return build("tree", t.N, edges)
}

// ScaleFree grows a power-law graph by Barabási–Albert preferential
// attachment: starting from a clique on Attach+1 vertices, each new
// vertex attaches to Attach distinct existing vertices chosen with
// probability proportional to their current degree (sampled from the
// repeated-endpoints list, the standard exact implementation). The
// result has hubs whose degree dwarfs the mean — the regime where
// infection trees grow heavy-tailed degree distributions.
type ScaleFree struct {
	N      int
	Attach int
}

var _ Generator = ScaleFree{}

// Name implements Generator.
func (ScaleFree) Name() string { return "scalefree" }

// Generate builds the preferential-attachment graph for seed.
func (s ScaleFree) Generate(seed uint64) (*Graph, error) {
	if s.Attach < 1 {
		return nil, fmt.Errorf("topo: scale-free attach %d, must be >= 1", s.Attach)
	}
	core := s.Attach + 1
	if s.N <= core {
		return nil, fmt.Errorf("topo: scale-free needs n > attach+1 = %d, got %d", core, s.N)
	}
	src := rng.NewPCG64(seed, streamScaleFree)
	edges := make([]edge, 0, core*(core-1)/2+(s.N-core)*s.Attach)
	// endpoints lists every edge endpoint twice over; drawing uniformly
	// from it IS degree-proportional selection.
	endpoints := make([]int32, 0, 2*cap(edges))
	for u := 0; u < core; u++ {
		for v := u + 1; v < core; v++ {
			edges = append(edges, edge{int32(u), int32(v)})
			endpoints = append(endpoints, int32(u), int32(v))
		}
	}
	picked := make([]int32, 0, s.Attach)
	for v := core; v < s.N; v++ {
		picked = picked[:0]
		for len(picked) < s.Attach {
			t := endpoints[rng.Intn(src, len(endpoints))]
			dup := false
			for _, p := range picked {
				if p == t {
					dup = true
					break
				}
			}
			if !dup {
				picked = append(picked, t)
			}
		}
		for _, t := range picked {
			edges = append(edges, edge{t, int32(v)})
			endpoints = append(endpoints, t, int32(v))
		}
	}
	return build("scalefree", s.N, edges)
}

// SmallWorld is the Watts–Strogatz model: a ring lattice where every
// vertex connects to its K/2 nearest neighbors on each side, then each
// lattice edge is rewired to a uniform random endpoint with probability
// Rewire. Rewire = 0 leaves the K-regular ring (λ₁ = K exactly, a
// useful analytical anchor); small Rewire keeps high clustering while
// collapsing path lengths.
type SmallWorld struct {
	N      int
	K      int // even, >= 2: lattice neighbors per vertex
	Rewire float64
}

var _ Generator = SmallWorld{}

// Name implements Generator.
func (SmallWorld) Name() string { return "smallworld" }

// Generate builds the rewired ring lattice for seed.
func (w SmallWorld) Generate(seed uint64) (*Graph, error) {
	switch {
	case w.K < 2 || w.K%2 != 0:
		return nil, fmt.Errorf("topo: small-world K %d, must be even and >= 2", w.K)
	case w.N <= w.K:
		return nil, fmt.Errorf("topo: small-world needs n > K = %d, got %d", w.K, w.N)
	case w.Rewire < 0 || w.Rewire > 1:
		return nil, fmt.Errorf("topo: rewire probability %v outside [0, 1]", w.Rewire)
	}
	src := rng.NewPCG64(seed, streamSmallWorld)
	n := int32(w.N)
	// present tracks the current edge set for duplicate avoidance during
	// rewiring, keyed min<<32|max.
	key := func(a, b int32) uint64 {
		if a > b {
			a, b = b, a
		}
		return uint64(a)<<32 | uint64(uint32(b))
	}
	present := make(map[uint64]struct{}, w.N*w.K/2)
	edges := make([]edge, 0, w.N*w.K/2)
	for u := int32(0); u < n; u++ {
		for j := 1; j <= w.K/2; j++ {
			v := (u + int32(j)) % n
			edges = append(edges, edge{u, v})
			present[key(u, v)] = struct{}{}
		}
	}
	// Rewiring pass in deterministic edge order: each lattice edge keeps
	// its near endpoint u and redraws the far one with probability
	// Rewire, skipping self-loops and existing edges. Retries are capped
	// so a pathological draw sequence cannot stall generation; on
	// exhaustion the lattice edge survives unchanged.
	for i := range edges {
		if src.Float64() >= w.Rewire {
			continue
		}
		u, old := edges[i].u, edges[i].v
		for retry := 0; retry < 32; retry++ {
			v := int32(rng.Intn(src, w.N))
			if v == u || v == old {
				continue
			}
			if _, dup := present[key(u, v)]; dup {
				continue
			}
			delete(present, key(u, old))
			present[key(u, v)] = struct{}{}
			edges[i].v = v
			break
		}
	}
	return build("smallworld", w.N, edges)
}

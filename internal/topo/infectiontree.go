package topo

import (
	"fmt"
	"time"
)

// Infection-tree instrumentation, after Wang, Chen and Chen
// ("Characterizing Internet Worm Infection Structure"): the simulator
// records a parent pointer at each infection instant, and this file
// reduces that lineage to the paper's structure metrics — generation
// sizes (how many hosts sit at each depth from a seed) and the degree
// distribution of the infection tree (how many children each infected
// host went on to infect). Scale-free contact graphs concentrate
// infections through hubs, so their infection trees grow heavy-tailed
// degree distributions that tree-structured enterprises cannot.

// InfectionEvent records that Parent infected Child at virtual time At:
// one entry of the simulator's infection lineage (sim.Result.Tree).
type InfectionEvent struct {
	Parent, Child int
	At            time.Duration
}

// TreeMetrics summarizes one run's infection-tree structure.
type TreeMetrics struct {
	// Total is the number of infected hosts including the seeds.
	Total int
	// Seeds is the number of generation-0 hosts.
	Seeds int
	// GenerationSizes[g] counts hosts at depth g; GenerationSizes[0] ==
	// Seeds, and the sizes sum to Total.
	GenerationSizes []int
	// DegreeHistogram[d] counts infected hosts with exactly d children
	// in the infection tree.
	DegreeHistogram []int
	// MaxChildren is the largest child count of any infected host.
	MaxChildren int
	// MaxDepth is the deepest generation reached.
	MaxDepth int
}

// AnalyzeInfectionTree validates and reduces an infection lineage.
// Seeds are hosts 0..seeds-1, infected at time 0. Events must arrive
// in infection order (the simulator emits them that way). The lineage
// must be a forest rooted at the seeds: every child appears exactly
// once, is not a seed, and its parent was infected at or before the
// child's infection time.
func AnalyzeInfectionTree(seeds int, events []InfectionEvent) (*TreeMetrics, error) {
	if seeds < 1 {
		return nil, fmt.Errorf("topo: infection tree needs seeds >= 1, got %d", seeds)
	}
	gen := make(map[int]int, seeds+len(events))
	at := make(map[int]time.Duration, seeds+len(events))
	children := make(map[int]int, seeds+len(events))
	for s := 0; s < seeds; s++ {
		gen[s] = 0
		at[s] = 0
	}
	m := &TreeMetrics{Seeds: seeds, GenerationSizes: []int{seeds}}
	for _, e := range events {
		pg, ok := gen[e.Parent]
		if !ok {
			return nil, fmt.Errorf("topo: host %d infected by %d, which is not yet infected", e.Child, e.Parent)
		}
		if e.Child < seeds {
			return nil, fmt.Errorf("topo: seed %d appears as an infection-event child", e.Child)
		}
		if _, dup := gen[e.Child]; dup {
			return nil, fmt.Errorf("topo: host %d infected twice", e.Child)
		}
		if e.At < at[e.Parent] {
			return nil, fmt.Errorf("topo: host %d infected at %v before its parent %d at %v",
				e.Child, e.At, e.Parent, at[e.Parent])
		}
		g := pg + 1
		gen[e.Child] = g
		at[e.Child] = e.At
		children[e.Parent]++
		for len(m.GenerationSizes) <= g {
			m.GenerationSizes = append(m.GenerationSizes, 0)
		}
		m.GenerationSizes[g]++
		if g > m.MaxDepth {
			m.MaxDepth = g
		}
	}
	m.Total = seeds + len(events)
	for host := range gen {
		c := children[host]
		for len(m.DegreeHistogram) <= c {
			m.DegreeHistogram = append(m.DegreeHistogram, 0)
		}
		m.DegreeHistogram[c]++
		if c > m.MaxChildren {
			m.MaxChildren = c
		}
	}
	return m, nil
}

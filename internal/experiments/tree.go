package experiments

import (
	"fmt"
	"sort"
	"strings"

	"wormcontain/internal/sim"
)

func init() {
	register("fig1", runFig1)
}

// runFig1 reproduces Fig. 1's generation-wise infection tree: every
// infected host linked to its offspring, with the paper's observation
// that "a host in a higher generation may precede a host in a lower
// generation" in time (its t(D) < t(B) example). The tree is rendered
// in the notes as an indented lineage, and the series gives each host's
// (infection time, generation) scatter.
func runFig1(opts Options) (*Result, error) {
	opts = opts.normalize()
	cfg, err := codeRedDES(opts.Seed, 3, false)
	if err != nil {
		return nil, err
	}
	cfg.RecordTree = true
	cfg.Kernel = opts.kernel
	out, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}

	// Depth (generation) and infection time per host.
	type node struct {
		gen      int
		atMin    float64
		children []int
	}
	nodes := map[int]*node{}
	for i := 0; i < cfg.I0; i++ {
		nodes[i] = &node{}
	}
	for _, e := range out.Tree {
		parent := nodes[e.Parent]
		nodes[e.Child] = &node{gen: parent.gen + 1, atMin: e.At.Minutes()}
		parent.children = append(parent.children, e.Child)
	}

	// Scatter series: infection time vs generation, the quantitative
	// content of Figs. 1–2's combined view.
	ids := make([]int, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var xs, ys []float64
	for _, id := range ids {
		xs = append(xs, nodes[id].atMin)
		ys = append(ys, float64(nodes[id].gen))
	}
	res := &Result{
		ID:    "fig1",
		Title: "generation-wise infection tree, Code Red (Fig. 1)",
		Series: []Series{{
			Label: "infection time (minutes) vs generation, one point per host",
			X:     xs,
			Y:     ys,
		}},
	}

	// The time-vs-generation inversion the paper highlights: find a
	// pair (a, b) with gen(a) > gen(b) but t(a) < t(b).
	inversionFound := false
	for _, a := range ids {
		for _, b := range ids {
			na, nb := nodes[a], nodes[b]
			if na.gen > nb.gen && nb.atMin > na.atMin && na.gen > 0 && nb.gen > 0 {
				res.Notes = append(res.Notes, fmt.Sprintf(
					"time/generation inversion (paper's t(D) < t(B)): host %d (gen %d, t=%.1f min) "+
						"precedes host %d (gen %d, t=%.1f min)",
					a, na.gen, na.atMin, b, nb.gen, nb.atMin))
				inversionFound = true
				break
			}
		}
		if inversionFound {
			break
		}
	}
	if !inversionFound {
		res.Notes = append(res.Notes,
			"no time/generation inversion in this sample path (possible for small outbreaks)")
	}

	// Render the lineage of the most prolific seed as indented text.
	bestSeed, bestSize := 0, -1
	var subtreeSize func(id int) int
	subtreeSize = func(id int) int {
		n := 1
		for _, c := range nodes[id].children {
			n += subtreeSize(c)
		}
		return n
	}
	for i := 0; i < cfg.I0; i++ {
		if s := subtreeSize(i); s > bestSize {
			bestSeed, bestSize = i, s
		}
	}
	var render func(id, depth int, b *strings.Builder)
	render = func(id, depth int, b *strings.Builder) {
		n := nodes[id]
		fmt.Fprintf(b, "%s host %d (gen %d, t=%.1f min)\n",
			strings.Repeat("  ", depth), id, n.gen, n.atMin)
		children := append([]int(nil), n.children...)
		sort.Ints(children)
		for _, c := range children {
			render(c, depth+1, b)
		}
	}
	var b strings.Builder
	render(bestSeed, 0, &b)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"largest seed lineage (%d hosts of %d total):\n%s",
		bestSize, out.TotalInfected, strings.TrimRight(b.String(), "\n")))
	res.Notes = append(res.Notes, fmt.Sprintf(
		"run: %d hosts over %d generations; every non-seed host has exactly one parent (tree verified: %d edges)",
		out.TotalInfected, len(out.Generations), len(out.Tree)))
	return res, nil
}

package experiments

import (
	"fmt"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/defense"
	"wormcontain/internal/parallel"
	"wormcontain/internal/sim"
	"wormcontain/internal/stats"
	"wormcontain/internal/topo"
)

func init() {
	register("topology-containment", runTopologyContainment)
}

// The study's population and epidemic placement. Every topology —
// including the uniform-scanning baseline — is run at the same relative
// distance above its own epidemic threshold (β/δ·λ₁ = topoRatio with
// δ = 1), so differences between curves come from graph structure, not
// from how supercritical each cell happens to be.
const (
	topoStudyN     = 600
	topoStudyI0    = 4
	topoStudyRatio = 4.0
	// topoStudyM is the M-limit budget. In graph mode a host's distinct
	// destinations are capped by its degree (mean 6 here), so the
	// paper's enterprise budgets (M=25+) never trigger; M=3 sits below
	// the mean degree and actually arbitrates.
	topoStudyM = 3
	// topoStudyPrefix hosts the uniform baseline: 600 vulnerable hosts
	// in a /22 (1024 addresses), density ≈ 0.59, so outbreaks resolve
	// in seconds of virtual time.
	topoStudyPrefix = "10.60.0.0/22"
)

// topoStudyCell aggregates one topology×defense cell across
// replications.
type topoStudyCell struct {
	totals      []int
	genSums     []float64 // summed generation sizes, index = generation
	degreeSums  []float64 // summed infection-tree degree histogram
	maxChildren int
}

// topoStudyTopologies returns the study's named topologies. A nil graph
// marks the uniform-scanning baseline; graphs are generated once from
// the study seed and shared read-only across replications (Sample draws
// from the caller's RNG, so sharing is race-free).
func topoStudyTopologies(seed uint64) ([]string, []*topo.Graph, error) {
	gens := []topo.Generator{
		topo.Tree{N: topoStudyN, Branching: 3},
		topo.ScaleFree{N: topoStudyN, Attach: 3},
		topo.SmallWorld{N: topoStudyN, K: 6, Rewire: 0.1},
	}
	names := []string{"uniform"}
	graphs := []*topo.Graph{nil}
	for _, g := range gens {
		built, err := g.Generate(seed)
		if err != nil {
			return nil, nil, err
		}
		names = append(names, g.Name())
		graphs = append(graphs, built)
	}
	return names, graphs, nil
}

// topoStudyConfig builds one replication's simulation config for the
// given topology (nil = uniform baseline), placed at topoStudyRatio
// above threshold.
func topoStudyConfig(g *topo.Graph, d defense.Defense, seed, stream uint64, record bool) (sim.Config, error) {
	cfg := sim.Config{
		V: topoStudyN, I0: topoStudyI0, PatchRate: 1,
		Defense: d, MaxInfected: topoStudyN,
		Seed: seed, Stream: stream, RecordTree: record,
	}
	if g == nil {
		pfx, err := addr.ParsePrefix(topoStudyPrefix)
		if err != nil {
			return sim.Config{}, err
		}
		routable, err := addr.NewRoutable([]addr.Prefix{pfx})
		if err != nil {
			return sim.Config{}, err
		}
		// Homogeneous-mixing threshold: per-host rate r infects at
		// pairwise rate r/Ω, so β/δ·λ₁ ≈ r·V/Ω; solve for the ratio.
		cfg.Scanner = routable
		cfg.ClusterPrefix = &pfx
		cfg.ScanRate = topoStudyRatio * float64(pfx.Size()) / topoStudyN
		cfg.Horizon = 5 * time.Minute
		return cfg, nil
	}
	lambda1, _ := g.SpectralRadius()
	cfg.Topology = g
	cfg.EdgeScanRate = true
	cfg.ScanRate = topoStudyRatio / lambda1
	return cfg, nil
}

// runTopologyContainment (topology-containment) compares worm spread
// and containment across network structure: the paper's uniform-scanning
// enterprise baseline against enterprise-subnet trees, scale-free and
// small-world graphs, each with no defense and with an M-limit budget
// small enough to arbitrate on graph neighborhoods. No-defense runs also
// record infection trees and report generation sizes and lineage degree
// distributions — the structural fingerprints topology leaves on an
// outbreak.
func runTopologyContainment(opts Options) (*Result, error) {
	opts = opts.normalize()
	// Replications run to extinction on 600 hosts, so a fraction of the
	// Monte-Carlo default suffices: 8 under Quick, 40 at full depth.
	reps := opts.Runs / 25
	if reps < 8 {
		reps = 8
	}

	names, graphs, err := topoStudyTopologies(opts.Seed)
	if err != nil {
		return nil, err
	}
	defenses := []struct {
		name string
		mk   func() (defense.Defense, error)
	}{
		{"no defense", func() (defense.Defense, error) { return defense.Null{}, nil }},
		{fmt.Sprintf("m-limit (M=%d)", topoStudyM), func() (defense.Defense, error) {
			return defense.NewMLimit(topoStudyM, 365*24*time.Hour)
		}},
	}

	res := &Result{
		ID:    "topology-containment",
		Title: "worm spread and M-limit containment across network topologies",
	}
	for ti, g := range graphs {
		if g == nil {
			continue
		}
		lambda1, _ := g.SpectralRadius()
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: lambda1 = %.3f, mean degree %.2f, max degree %d; per-edge rate %.4f places beta/delta*lambda1 = %.1f",
			names[ti], lambda1, g.MeanDegree(), g.MaxDegree(), topoStudyRatio/lambda1, topoStudyRatio))
	}

	pool := parallel.NewScratchPool(parallel.ClampWorkers(opts.Workers, reps), sim.NewScratch)
	cells := make([][]topoStudyCell, len(defenses))
	for di, def := range defenses {
		cells[di] = make([]topoStudyCell, len(graphs))
		for ti, g := range graphs {
			record := di == 0 // lineage artifacts from undefended runs only
			type repOut struct {
				total int
				tree  *topo.TreeMetrics
			}
			outs, err := parallel.MapSlot(reps, opts.Workers, func(r, slot int) (repOut, error) {
				d, err := def.mk()
				if err != nil {
					return repOut{}, err
				}
				stream := uint64((ti*len(defenses)+di)*10_000 + r)
				cfg, err := topoStudyConfig(g, d, opts.Seed, stream, record)
				if err != nil {
					return repOut{}, err
				}
				cfg.Kernel = opts.kernel
				out, err := sim.RunWith(cfg, pool.Get(slot))
				if err != nil {
					return repOut{}, err
				}
				ro := repOut{total: out.TotalInfected}
				if record {
					if ro.tree, err = topo.AnalyzeInfectionTree(topoStudyI0, out.Tree); err != nil {
						return repOut{}, err
					}
				}
				return ro, nil
			})
			if err != nil {
				return nil, err
			}
			cell := &cells[di][ti]
			for _, o := range outs {
				cell.totals = append(cell.totals, o.total)
				if o.tree == nil {
					continue
				}
				for gi, size := range o.tree.GenerationSizes {
					for len(cell.genSums) <= gi {
						cell.genSums = append(cell.genSums, 0)
					}
					cell.genSums[gi] += float64(size)
				}
				for d, c := range o.tree.DegreeHistogram {
					for len(cell.degreeSums) <= d {
						cell.degreeSums = append(cell.degreeSums, 0)
					}
					cell.degreeSums[d] += float64(c)
				}
				if o.tree.MaxChildren > cell.maxChildren {
					cell.maxChildren = o.tree.MaxChildren
				}
			}
		}
	}

	// Headline series: mean total infections by topology, one curve per
	// defense; X is the topology index in the order of the notes.
	topoIndex := irange(len(graphs) - 1)
	for di, def := range defenses {
		means := make([]float64, len(graphs))
		for ti := range graphs {
			sum, err := stats.SummarizeInts(cells[di][ti].totals)
			if err != nil {
				return nil, err
			}
			means[ti] = sum.Mean
		}
		res.Series = append(res.Series, Series{
			Label: fmt.Sprintf("mean total infections by topology [%s] (0=uniform 1=tree 2=scalefree 3=smallworld)", def.name),
			X:     topoIndex, Y: means,
		})
	}
	for ti, name := range names {
		cell := cells[0][ti]
		gens := make([]float64, len(cell.genSums))
		for gi, s := range cell.genSums {
			gens[gi] = s / float64(reps)
		}
		res.Series = append(res.Series, Series{
			Label: name + ": mean generation size vs generation (no defense)",
			X:     irange(len(gens) - 1), Y: gens,
		})
		res.Series = append(res.Series, Series{
			Label: name + ": infection-tree degree histogram (no defense, summed)",
			X:     irange(len(cell.degreeSums) - 1), Y: cell.degreeSums,
		})
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: max infection-tree children %d over %d undefended replications",
			name, cell.maxChildren, reps))
	}
	for ti, name := range names {
		none, err := stats.SummarizeInts(cells[0][ti].totals)
		if err != nil {
			return nil, err
		}
		limited, err := stats.SummarizeInts(cells[1][ti].totals)
		if err != nil {
			return nil, err
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: M=%d cuts mean infections %.1f -> %.1f (x%.2f)",
			name, topoStudyM, none.Mean, limited.Mean, none.Mean/limited.Mean))
	}
	return res, nil
}

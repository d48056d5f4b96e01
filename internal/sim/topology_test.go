package sim

import (
	"testing"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/topo"
)

// thresholdGenerators is the family grid the spectral-threshold
// regression sweeps: the three built-in topology generators at the
// parameters the topology-containment experiment uses.
func thresholdGenerators(n int) []topo.Generator {
	return []topo.Generator{
		topo.Tree{N: n, Branching: 3},
		topo.ScaleFree{N: n, Attach: 3},
		topo.SmallWorld{N: n, K: 6, Rewire: 0.1},
	}
}

// runContactProcess drives the SIR contact process on g: per-edge
// infection rate beta (EdgeScanRate scales each host by its degree),
// recovery rate 1, no defense, run to extinction.
func runContactProcess(t *testing.T, g *topo.Graph, beta float64, seed, stream uint64, recordTree bool) *Result {
	t.Helper()
	res, err := Run(Config{
		V: g.N(), I0: 4, ScanRate: beta, EdgeScanRate: true,
		Topology: g, PatchRate: 1,
		Seed: seed, Stream: stream, RecordTree: recordTree,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Extinct {
		t.Fatalf("contact process did not run to extinction (truncated=%v)", res.Truncated)
	}
	return res
}

// TestTopoSpectralThreshold is the Draief/Ganesh/Massoulié analytical
// check as a regression test: an SIR contact process with per-edge
// rate β and recovery rate δ dies out with bounded total size when
// β/δ·λ₁ < 1 and reaches a macroscopic fraction above it. Both
// regimes are pinned for every generator family across seeds 1/7/1905
// (the seed selects both the graph and the epidemic streams).
func TestTopoSpectralThreshold(t *testing.T) {
	const (
		n         = 600
		i0        = 4
		reps      = 8
		subRatio  = 0.3     // β/δ·λ₁ placed at 0.3: safely subcritical
		supRatio  = 4.0     // and at 4.0: safely supercritical
		subEvery  = i0 + 60 // no sub-threshold replication may exceed this
		subMean   = i0 + 20 // bounded mean total size below threshold
		supMean   = n / 15  // macroscopic mean total size above it
		separator = 5.0     // super must beat sub by at least this factor
	)
	for _, gen := range thresholdGenerators(n) {
		for _, seed := range []uint64{1, 7, 1905} {
			g, err := gen.Generate(seed)
			if err != nil {
				t.Fatal(err)
			}
			lambda1, _ := g.SpectralRadius()
			if lambda1 <= 1 {
				t.Fatalf("%s seed %d: implausible lambda1 %v", gen.Name(), seed, lambda1)
			}
			var subTotal, supTotal int
			for r := 0; r < reps; r++ {
				sub := runContactProcess(t, g, subRatio/lambda1, seed, uint64(r), false)
				if sub.TotalInfected > subEvery {
					t.Errorf("%s seed %d rep %d: sub-threshold outbreak infected %d > %d",
						gen.Name(), seed, r, sub.TotalInfected, subEvery)
				}
				subTotal += sub.TotalInfected
				sup := runContactProcess(t, g, supRatio/lambda1, seed, uint64(r), false)
				supTotal += sup.TotalInfected
			}
			subM := float64(subTotal) / reps
			supM := float64(supTotal) / reps
			if subM > subMean {
				t.Errorf("%s seed %d: sub-threshold mean %.1f > %d — not bounded",
					gen.Name(), seed, subM, subMean)
			}
			if supM < supMean {
				t.Errorf("%s seed %d: super-threshold mean %.1f < %d — not macroscopic",
					gen.Name(), seed, supM, supMean)
			}
			if supM < separator*subM {
				t.Errorf("%s seed %d: super/sub separation %.1f/%.1f below %.0fx",
					gen.Name(), seed, supM, subM, separator)
			}
		}
	}
}

// TestTopoInfectionTreeArtifacts validates the infection-tree
// instrumentation on real super-threshold runs: generation sizes sum
// to the total infection count, every non-seed host has exactly one
// parent that was infected strictly earlier, and the infection tree's
// degree distribution is heavier-tailed on scale-free graphs than on
// enterprise trees (whose child counts are capped by the branching
// factor).
func TestTopoInfectionTreeArtifacts(t *testing.T) {
	const (
		n    = 600
		i0   = 4
		reps = 4
	)
	type tail struct {
		maxChildren int
		tailAt4     float64
	}
	tails := map[string]*tail{}
	for _, gen := range thresholdGenerators(n) {
		agg := &tail{}
		tails[gen.Name()] = agg
		for _, seed := range []uint64{1, 7, 1905} {
			g, err := gen.Generate(seed)
			if err != nil {
				t.Fatal(err)
			}
			lambda1, _ := g.SpectralRadius()
			for r := 0; r < reps; r++ {
				res := runContactProcess(t, g, 4.0/lambda1, seed, uint64(r), true)

				// Exactly one lineage edge per non-seed infection, with a
				// strictly earlier parent.
				if len(res.Tree) != res.TotalInfected-i0 {
					t.Fatalf("%s: %d lineage edges for %d non-seed infections",
						gen.Name(), len(res.Tree), res.TotalInfected-i0)
				}
				infectedAt := map[int]time.Duration{}
				for s := 0; s < i0; s++ {
					infectedAt[s] = 0
				}
				events := make([]topo.InfectionEvent, len(res.Tree))
				for k, e := range res.Tree {
					pAt, ok := infectedAt[e.Parent]
					if !ok {
						t.Fatalf("%s: parent %d infected after its child", gen.Name(), e.Parent)
					}
					if _, dup := infectedAt[e.Child]; dup {
						t.Fatalf("%s: host %d has two parents", gen.Name(), e.Child)
					}
					if e.At <= pAt {
						t.Fatalf("%s: host %d at %v not strictly after parent %d at %v",
							gen.Name(), e.Child, e.At, e.Parent, pAt)
					}
					infectedAt[e.Child] = e.At
					events[k] = topo.InfectionEvent{Parent: e.Parent, Child: e.Child, At: e.At}
				}

				m, err := topo.AnalyzeInfectionTree(i0, events)
				if err != nil {
					t.Fatalf("%s: %v", gen.Name(), err)
				}
				sum := 0
				for _, s := range m.GenerationSizes {
					sum += s
				}
				if sum != res.TotalInfected {
					t.Fatalf("%s: generation sizes sum to %d, total infections %d",
						gen.Name(), sum, res.TotalInfected)
				}
				// The simulator's own generation counters must agree with the
				// lineage-derived ones.
				for gi, size := range m.GenerationSizes {
					if res.Generations[gi] != size {
						t.Fatalf("%s: generation %d: lineage %d, simulator %d",
							gen.Name(), gi, size, res.Generations[gi])
					}
				}
				if m.MaxChildren > agg.maxChildren {
					agg.maxChildren = m.MaxChildren
				}
				agg.tailAt4 += tailFraction(m, 4)
			}
		}
	}

	tree, sf := tails["tree"], tails["scalefree"]
	// On a B-ary tree every host has at most B+1 neighbors, one of them
	// its own infector, so infection-tree degree is capped at B.
	if tree.maxChildren > 3 {
		t.Errorf("tree topology produced %d children, cap is branching=3", tree.maxChildren)
	}
	if sf.maxChildren < 2*tree.maxChildren {
		t.Errorf("scale-free max children %d not heavier than tree's %d",
			sf.maxChildren, tree.maxChildren)
	}
	if sf.tailAt4 <= tree.tailAt4 {
		t.Errorf("scale-free tail fraction %.4f not above tree's %.4f (degree >= 4)",
			sf.tailAt4, tree.tailAt4)
	}
}

// tailFraction is the fraction of infected hosts whose infection-tree
// degree is at least d.
func tailFraction(m *topo.TreeMetrics, d int) float64 {
	if m.Total == 0 {
		return 0
	}
	count := 0
	for deg := d; deg < len(m.DegreeHistogram); deg++ {
		count += m.DegreeHistogram[deg]
	}
	return float64(count) / float64(m.Total)
}

// TestTopoRunDeterminism replays a topology run: same seed and stream
// must be bit-identical, with and without arena reuse, and the shared
// read-only graph must not couple replications.
func TestTopoRunDeterminism(t *testing.T) {
	g, err := topo.ScaleFree{N: 400, Attach: 3}.Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		V: 400, I0: 3, ScanRate: 0.5, EdgeScanRate: true,
		Topology: g, PatchRate: 1, Seed: 7, Stream: 2, RecordTree: true,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scratch := NewScratch()
	if _, err := RunWith(Config{V: 400, I0: 2, ScanRate: 1, Topology: g,
		PatchRate: 1, Seed: 99, Stream: 0}, scratch); err != nil {
		t.Fatal(err) // dirty the arena with a different topology run
	}
	b, err := RunWith(cfg, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprintResult(a) != fingerprintResult(b) {
		t.Fatalf("arena reuse changed the run:\nfresh:  %s\nreused: %s",
			fingerprintResult(a), fingerprintResult(b))
	}
	for i := range a.Tree {
		if a.Tree[i] != b.Tree[i] {
			t.Fatalf("lineage edge %d differs: %+v != %+v", i, a.Tree[i], b.Tree[i])
		}
	}
}

// TestTopoConfigValidation sweeps the topology-mode configuration
// error paths.
func TestTopoConfigValidation(t *testing.T) {
	g, err := topo.Tree{N: 50, Branching: 2}.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"population mismatch", Config{V: 49, I0: 1, ScanRate: 1, Topology: g}},
		{"scanner conflict", Config{V: 50, I0: 1, ScanRate: 1, Topology: g,
			Scanner: addr.Uniform{}}},
		{"scanner factory conflict", Config{V: 50, I0: 1, ScanRate: 1, Topology: g,
			ScannerFactory: func() addr.Scanner { return addr.Uniform{} }}},
		{"edge rate without topology", Config{V: 50, I0: 1, ScanRate: 1,
			EdgeScanRate: true}},
	}
	for _, c := range cases {
		if _, err := Run(c.cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestTopoIsolatedVertices pins the isolated-vertex semantics: a seed
// with no neighbors never scans and the run ends immediately (inert
// but still infected), rather than panicking or spinning.
func TestTopoIsolatedVertices(t *testing.T) {
	g, err := topo.ParseAdjacency([]byte("wormtopo v1 4 1\n2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{V: 4, I0: 2, ScanRate: 5, Topology: g, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalScans != 0 {
		t.Fatalf("isolated seeds scanned %d times", res.TotalScans)
	}
	if res.TotalInfected != 2 || res.Extinct {
		t.Fatalf("result = %+v, want 2 inert infections", res)
	}
}

// TestTopoScanPathAllocations is the engine-level allocation gate for
// graph scanning: with a warmed arena, per-run allocations must not
// grow with the number of scan events. PatchRate 0 saturates the
// component and then hosts keep scanning until the horizon, so a 4x
// horizon multiplies scan volume without changing the epidemic's
// shape — any per-scan allocation in the CSR sampler would surface as
// an allocation delta between the two runs.
func TestTopoScanPathAllocations(t *testing.T) {
	g, err := topo.SmallWorld{N: 500, K: 6, Rewire: 0.1}.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(horizon time.Duration) (float64, uint64) {
		cfg := Config{V: 500, I0: 3, ScanRate: 2, EdgeScanRate: true,
			Topology: g, Horizon: horizon, Seed: 3}
		scratch := NewScratch()
		if _, err := RunWith(cfg, scratch); err != nil { // warm the arena
			t.Fatal(err)
		}
		var scans uint64
		allocs := testing.AllocsPerRun(5, func() {
			res, err := RunWith(cfg, scratch)
			if err != nil {
				t.Fatal(err)
			}
			scans = res.TotalScans
		})
		return allocs, scans
	}
	shortAllocs, shortScans := measure(2 * time.Second)
	longAllocs, longScans := measure(8 * time.Second)
	if longScans < 2*shortScans {
		t.Fatalf("horizon scaling did not grow scan volume: %d -> %d scans",
			shortScans, longScans)
	}
	if longAllocs > shortAllocs {
		t.Fatalf("allocations grew with scan volume: %.1f/run at %d scans, %.1f/run at %d scans — sampler leaks onto the hot path",
			shortAllocs, shortScans, longAllocs, longScans)
	}
}

package sim

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/defense"
	"wormcontain/internal/rng"
)

// The golden determinism suite pins the simulator's seeded outputs
// across performance work: the event-kernel rewrite, the arena reuse in
// the Monte-Carlo engines and the cached samplers must all keep every
// seeded result byte-identical. The fingerprints in
// testdata/golden.json were recorded on the pre-optimization tree;
// -update regenerates them (only legitimate when a change is *supposed*
// to alter sample paths, which a pure optimization never is).
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json")

const goldenPath = "testdata/golden.json"

// goldenSeeds are the seeds the issue pins: a replication-worthy spread
// of small, mid and large values.
var goldenSeeds = []uint64{1, 7, 1905}

// goldenWorkers are the worker counts every Monte-Carlo fingerprint
// must reproduce under.
var goldenWorkers = []int{1, 4, 16}

// fingerprintResult folds every observable field of a Result into one
// FNV-1a hash, rendered as hex. Any change to any field for a fixed
// seed fails the golden comparison.
func fingerprintResult(res *Result) string {
	h := fnv.New64a()
	w := func(format string, args ...any) {
		fmt.Fprintf(h, format, args...)
	}
	w("total=%d removed=%d peak=%d end=%d extinct=%t trunc=%t\n",
		res.TotalInfected, res.TotalRemoved, res.PeakActive,
		int64(res.EndTime), res.Extinct, res.Truncated)
	w("scans=%d delivered=%d delayed=%d dropped=%d patched=%d immunized=%d\n",
		res.TotalScans, res.Delivered, res.Delayed, res.Dropped,
		res.Patched, res.Immunized)
	w("generations=%v\n", res.Generations)
	for _, e := range res.Tree {
		w("edge %d->%d @%d\n", e.Parent, e.Child, int64(e.At))
	}
	if res.InfectedSeries != nil {
		times, values := res.InfectedSeries.Sample(res.EndTime, 64)
		w("infected=%v %v\n", times, values)
		times, values = res.RemovedSeries.Sample(res.EndTime, 64)
		w("removed=%v %v\n", times, values)
		times, values = res.ActiveSeries.Sample(res.EndTime, 64)
		w("active=%v %v\n", times, values)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// fingerprintTotals hashes a Monte-Carlo Totals slice.
func fingerprintTotals(totals []int) string {
	h := fnv.New64a()
	for _, t := range totals {
		fmt.Fprintf(h, "%d,", t)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenRunConfigs are the full-DES scenarios the fingerprints cover:
// an enterprise outbreak under the M-limit (the ablation workhorse) and
// an uncontained run with countermeasures, paths and lineage recording
// switched on so every Result field is exercised.
func goldenRunConfigs(seed uint64) (map[string]Config, error) {
	pfx, err := addr.ParsePrefix("10.50.0.0/16")
	if err != nil {
		return nil, err
	}
	routable, err := addr.NewRoutable([]addr.Prefix{pfx})
	if err != nil {
		return nil, err
	}
	mlimit, err := defense.NewMLimit(25, 365*24*time.Hour)
	if err != nil {
		return nil, err
	}
	return map[string]Config{
		"enterprise-mlimit": {
			V: 2000, I0: 5, ScanRate: 20,
			Scanner: routable, Defense: mlimit,
			ClusterPrefix: &pfx, MaxInfected: 2000,
			Horizon: 2 * time.Minute,
			Seed:    seed, Stream: 3,
		},
		"uncontained-countermeasures": {
			V: 4000, I0: 8, ScanRate: 15,
			Scanner: routable, ClusterPrefix: &pfx,
			MaxInfected: 1500, Horizon: 90 * time.Second,
			PatchRate: 0.002, ImmunizeRate: 0.0005,
			RecordPaths: true, RecordTree: true,
			Seed: seed, Stream: 9,
		},
	}, nil
}

// computeGolden produces the full fingerprint map: one entry per
// (scenario, seed) for sim.Run, one per (MC scenario, seed) for the
// fast Monte-Carlo engine.
func computeGolden(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, seed := range goldenSeeds {
		cfgs, err := goldenRunConfigs(seed)
		if err != nil {
			t.Fatal(err)
		}
		for name, cfg := range cfgs {
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			out[fmt.Sprintf("run/%s/seed=%d", name, seed)] = fingerprintResult(res)
		}
		// Fast Monte-Carlo: the fingerprint must be identical for every
		// worker count, so compute with workers=1 here and verify the
		// sweep separately in TestGoldenFastMonteCarloWorkerSweep.
		mcCfg := FastConfig{V: 360000, SpaceSize: 1 << 32, M: 10000, I0: 10, Seed: seed}
		mc, err := RunFastMonteCarloWorkers(mcCfg, 200, 1)
		if err != nil {
			t.Fatalf("mc seed %d: %v", seed, err)
		}
		out[fmt.Sprintf("mc/codered/seed=%d", seed)] = fingerprintTotals(mc.Totals)
	}
	return out
}

// loadGolden reads the committed fingerprints.
func loadGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	return m
}

// TestGoldenDeterminism asserts the seeded outputs of sim.Run and
// RunFastMonteCarloWorkers are byte-identical to the pre-optimization
// recordings for seeds {1, 7, 1905}.
func TestGoldenDeterminism(t *testing.T) {
	got := computeGolden(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, '\n')
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(got), goldenPath)
		return
	}
	want := loadGolden(t)
	for key, w := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: missing from computed fingerprints", key)
		} else if g != w {
			t.Errorf("%s: fingerprint %s, golden %s — seeded output changed", key, g, w)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: not in golden file, rerun with -update", key)
		}
	}
}

// TestGoldenFastMonteCarloWorkerSweep asserts the Monte-Carlo
// fingerprints hold for every worker count in {1, 4, 16}: the parallel
// engine (arenas included) must be observationally identical to the
// serial loop.
func TestGoldenFastMonteCarloWorkerSweep(t *testing.T) {
	if *updateGolden {
		t.Skip("sweep verifies the recorded fingerprints; nothing to update")
	}
	want := loadGolden(t)
	for _, seed := range goldenSeeds {
		key := fmt.Sprintf("mc/codered/seed=%d", seed)
		w, ok := want[key]
		if !ok {
			t.Fatalf("golden file missing %s", key)
		}
		cfg := FastConfig{V: 360000, SpaceSize: 1 << 32, M: 10000, I0: 10, Seed: seed}
		for _, workers := range goldenWorkers {
			mc, err := RunFastMonteCarloWorkers(cfg, 200, workers)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if g := fingerprintTotals(mc.Totals); g != w {
				t.Errorf("seed %d workers %d: fingerprint %s, golden %s",
					seed, workers, g, w)
			}
		}
	}
}

// TestGoldenArenaReuse runs every golden scenario through ONE shared
// Scratch, sequentially, in a deliberately shuffled seed order, and
// checks each run still reproduces its recorded fingerprint. This is
// the direct test that arena reuse — dirty event-kernel pools,
// populations and state slices left by a previous, differently-sized
// run — cannot leak into results.
func TestGoldenArenaReuse(t *testing.T) {
	if *updateGolden {
		t.Skip("arena sweep verifies the recorded fingerprints; nothing to update")
	}
	want := loadGolden(t)
	scratch := NewScratch()
	order := []uint64{1905, 1, 7, 1, 1905} // revisit seeds with a dirty arena
	for _, seed := range order {
		cfgs, err := goldenRunConfigs(seed)
		if err != nil {
			t.Fatal(err)
		}
		for name, cfg := range cfgs {
			key := fmt.Sprintf("run/%s/seed=%d", name, seed)
			w, ok := want[key]
			if !ok {
				t.Fatalf("golden file missing %s", key)
			}
			res, err := RunWith(cfg, scratch)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if g := fingerprintResult(res); g != w {
				t.Errorf("%s with reused arena: fingerprint %s, golden %s", key, g, w)
			}
		}
	}
}

// TestGoldenFastScratchReuse is the FastTotal counterpart: one reused
// FastScratch must match the fresh-allocation fingerprints.
func TestGoldenFastScratchReuse(t *testing.T) {
	if *updateGolden {
		t.Skip("scratch sweep verifies the recorded fingerprints; nothing to update")
	}
	want := loadGolden(t)
	scratch := new(fastScratch)
	for _, seed := range goldenSeeds {
		key := fmt.Sprintf("mc/codered/seed=%d", seed)
		w, ok := want[key]
		if !ok {
			t.Fatalf("golden file missing %s", key)
		}
		cfg := FastConfig{V: 360000, SpaceSize: 1 << 32, M: 10000, I0: 10, Seed: seed}
		totals := make([]int, 0, 200)
		for r := 0; r < 200; r++ {
			src := rng.NewPCG64(cfg.Seed, uint64(r))
			total, err := fastTotalScratch(cfg, src, scratch)
			if err != nil {
				t.Fatal(err)
			}
			totals = append(totals, total)
		}
		if g := fingerprintTotals(totals); g != w {
			t.Errorf("seed %d with reused scratch: fingerprint %s, golden %s", seed, g, w)
		}
	}
}

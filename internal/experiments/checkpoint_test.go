package experiments

import (
	"reflect"
	"testing"

	"wormcontain/internal/faultfs"
	"wormcontain/internal/sim"
)

// mcTestConfig is a small supercritical outbreak (R0 = M·V/Ω = 1.2) so
// totals vary across replications — a resume bug that reorders or
// re-seeds replications cannot hide behind constant outcomes.
func mcTestConfig() sim.FastConfig {
	return sim.FastConfig{V: 500, SpaceSize: 5000, M: 12, I0: 4, Seed: 99}
}

func mcTestOpts(runs int) Options {
	return Options{Runs: runs, Workers: 4, checkpointEvery: 8}
}

// TestMonteCarloCheckpointResume pins the headline resume contract at
// the journal layer: interrupt after k replications, rerun for the
// full count, and the merged totals are identical to an uninterrupted
// run — as is a third run served entirely from the journal.
func TestMonteCarloCheckpointResume(t *testing.T) {
	cfg := mcTestConfig()
	ref, err := sim.RunFastMonteCarloWorkers(cfg, 40, 1)
	if err != nil {
		t.Fatal(err)
	}

	mem := faultfs.NewMem(nil)
	// "Interrupted" run: only the first 25 replications complete.
	partial, err := runMonteCarloFS(mem, "probe", cfg, mcTestOpts(25))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(partial.Totals, ref.Totals[:25]) {
		t.Fatalf("partial run totals diverge:\n got %v\nwant %v", partial.Totals, ref.Totals[:25])
	}

	// Resume to the full count: replications 25..39 simulate, 0..24 merge
	// from the journal.
	resumed, err := runMonteCarloFS(mem, "probe", cfg, mcTestOpts(40))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.Totals, ref.Totals) {
		t.Fatalf("resumed totals diverge:\n got %v\nwant %v", resumed.Totals, ref.Totals)
	}

	// A third run is served entirely from the journal.
	replayed, err := runMonteCarloFS(mem, "probe", cfg, mcTestOpts(40))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed.Totals, ref.Totals) {
		t.Fatalf("fully journaled rerun diverges:\n got %v\nwant %v", replayed.Totals, ref.Totals)
	}

	// Fewer runs than journaled: the journal prefix serves the request.
	small, err := runMonteCarloFS(mem, "probe", cfg, mcTestOpts(10))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(small.Totals, ref.Totals[:10]) {
		t.Fatalf("shrunk rerun diverges:\n got %v\nwant %v", small.Totals, ref.Totals[:10])
	}

	// The histogram is rebuilt from the merged totals, not accumulated
	// across sessions.
	if got, want := resumed.CumFreq(cfg.V), ref.CumFreq(cfg.V); !reflect.DeepEqual(got, want) {
		t.Fatal("resumed cumulative frequency diverges from the uninterrupted run")
	}
}

// TestMonteCarloCheckpointTornTail appends a torn frame to the journal
// (the suffix a crash mid-commit leaves) and verifies the rerun
// truncates it and still reproduces the uninterrupted result.
func TestMonteCarloCheckpointTornTail(t *testing.T) {
	cfg := mcTestConfig()
	mem := faultfs.NewMem(nil)
	opts := mcTestOpts(30)
	ref, err := runMonteCarloFS(mem, "torn", cfg, opts)
	if err != nil {
		t.Fatal(err)
	}

	f, err := mem.Append(mcJournalName("torn"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x0d, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	again, err := runMonteCarloFS(mem, "torn", cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Totals, ref.Totals) {
		t.Fatal("torn-tail rerun diverges from the clean run")
	}
}

// TestMonteCarloCheckpointConfigChange verifies a journal written under
// one configuration is reset — not merged — when the configuration
// changes, and that the reset journal then resumes normally.
func TestMonteCarloCheckpointConfigChange(t *testing.T) {
	cfgA := mcTestConfig()
	cfgB := mcTestConfig()
	cfgB.Seed = 1905

	mem := faultfs.NewMem(nil)
	if _, err := runMonteCarloFS(mem, "swap", cfgA, mcTestOpts(20)); err != nil {
		t.Fatal(err)
	}
	got, err := runMonteCarloFS(mem, "swap", cfgB, mcTestOpts(20))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunFastMonteCarloWorkers(cfgB, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Totals, want.Totals) {
		t.Fatalf("post-reset totals diverge:\n got %v\nwant %v", got.Totals, want.Totals)
	}
	// And the reset journal resumes under the new configuration.
	resumed, err := runMonteCarloFS(mem, "swap", cfgB, mcTestOpts(35))
	if err != nil {
		t.Fatal(err)
	}
	wantFull, err := sim.RunFastMonteCarloWorkers(cfgB, 35, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.Totals, wantFull.Totals) {
		t.Fatal("resume after config reset diverges")
	}
}

// TestMonteCarloCheckpointFigure runs a real registered artifact twice
// through a checkpoint directory on the OS filesystem — interrupted,
// then resumed — and compares the fully formatted artifact against an
// uninterrupted reference byte for byte.
func TestMonteCarloCheckpointFigure(t *testing.T) {
	base := Options{Seed: 7, Runs: 30, Workers: 4, Quick: true}
	ref, err := Run("fig11", base)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	interrupted := base
	interrupted.CheckpointDir = dir
	interrupted.Runs = 18
	if _, err := Run("fig11", interrupted); err != nil {
		t.Fatal(err)
	}

	resumed := base
	resumed.CheckpointDir = dir
	got, err := Run("fig11", resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Format() != ref.Format() {
		t.Errorf("resumed fig11 differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s",
			ref.Format(), got.Format())
	}
}

// TestMonteCarloResumeValidation pins the sim-layer guard rails.
func TestMonteCarloResumeValidation(t *testing.T) {
	cfg := mcTestConfig()
	if _, err := sim.RunFastMonteCarloResume(cfg, 5, 1, make([]int, 6), nil); err == nil {
		t.Error("prior longer than runs accepted")
	}
	if _, err := sim.RunFastMonteCarloResume(cfg, 5, 1, []int{cfg.V + 1}, nil); err == nil {
		t.Error("out-of-range resumed total accepted")
	}
	// prior == runs: nothing to simulate, totals pass through.
	mc, err := sim.RunFastMonteCarloResume(cfg, 3, 1, []int{4, 5, 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mc.Totals, []int{4, 5, 6}) {
		t.Fatalf("pass-through totals: %v", mc.Totals)
	}
}

package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCaptured executes run(args) with stdout captured, returning the
// printed report and run's error.
func runCaptured(t *testing.T, args []string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	runErr := run(args)
	w.Close()
	os.Stdout = old
	return <-done, runErr
}

// captureRun is runCaptured for a run that must succeed.
func captureRun(t *testing.T, args []string) string {
	t.Helper()
	out, err := runCaptured(t, args)
	if err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out
}

// expectErrors runs wormsim on each argument list and fails for every
// one that succeeds, or that prints part of its report before failing.
func expectErrors(t *testing.T, cases [][]string) {
	t.Helper()
	for _, args := range cases {
		if out, err := runCaptured(t, args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		} else if out != "" {
			t.Errorf("run(%v) printed %q before failing with %v", args, out, err)
		}
	}
}

func TestRunSmallScenario(t *testing.T) {
	// A tiny contained run that finishes in milliseconds.
	args := []string{"-v", "2000", "-i0", "3", "-m", "10", "-rate", "50",
		"-seed", "5", "-horizon", "5s", "-path"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

func TestRunPresetAndDefenses(t *testing.T) {
	for _, d := range []string{"mlimit", "throttle", "quarantine"} {
		args := []string{"-v", "1000", "-i0", "2", "-m", "5", "-rate", "20",
			"-defense", d, "-horizon", "2s"}
		if err := run(args); err != nil {
			t.Fatalf("defense %s: %v", d, err)
		}
	}
}

func TestRunNoneNeedsBound(t *testing.T) {
	if err := run([]string{"-defense", "none"}); err == nil {
		t.Error("expected error: unbounded null-defense run")
	}
	if err := run([]string{"-v", "500", "-i0", "2", "-defense", "none",
		"-rate", "20", "-horizon", "2s", "-max-infected", "50"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunStealthAndCountermeasures(t *testing.T) {
	for _, args := range [][]string{
		{"-v", "1000", "-i0", "2", "-m", "8", "-rate", "30",
			"-duty-on", "1s", "-duty-off", "3s", "-patch-rate", "0.1",
			"-immunize-rate", "0.01", "-horizon", "5s", "-seed", "9"},
		// Rates whose draws pass des.MaxTime (~292 years): those events
		// are never scheduled, and the run completes.
		{"-v", "1000", "-i0", "3", "-rate", "10", "-patch-rate", "1e-12",
			"-immunize-rate", "1e-9", "-defense", "mlimit", "-m", "100", "-seed", "1"},
	} {
		if err := run(args); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
}

func TestRunSweepDeterministicAcrossWorkers(t *testing.T) {
	// The -runs sweep must print a byte-identical report for any
	// -workers value: replication r always uses stream base+r and the
	// reducer prints in replication order.
	base := []string{"-v", "2000", "-i0", "3", "-m", "12", "-rate", "30",
		"-seed", "11", "-horizon", "3s", "-runs", "16"}
	ref := captureRun(t, append(base, "-workers", "1"))
	if ref == "" {
		t.Fatal("empty sweep report")
	}
	for _, workers := range []string{"4", "8"} {
		got := captureRun(t, append(base, "-workers", workers))
		if got != ref {
			t.Errorf("workers=%s report differs:\n--- workers=1 ---\n%s\n--- workers=%s ---\n%s",
				workers, ref, workers, got)
		}
	}
}

func TestRunSweepPerDefense(t *testing.T) {
	for _, d := range []string{"mlimit", "throttle", "quarantine"} {
		args := []string{"-v", "1000", "-i0", "2", "-m", "5", "-rate", "20",
			"-defense", d, "-horizon", "2s", "-runs", "4", "-workers", "2"}
		if err := run(args); err != nil {
			t.Fatalf("defense %s: %v", d, err)
		}
	}
}

func TestRunSweepErrors(t *testing.T) {
	expectErrors(t, [][]string{
		// Zero replications.
		{"-v", "1000", "-runs", "0"},
		// -path needs a single replication.
		{"-v", "1000", "-horizon", "1s", "-runs", "2", "-path"},
		// Unbounded null defense must be rejected before the pool starts.
		{"-v", "1000", "-defense", "none", "-runs", "4"},
		// A pool needs a worker.
		{"-v", "1000", "-runs", "4", "-workers", "0"},
		{"-v", "1000", "-runs", "4", "-workers", "-2"},
	})
}

func TestRunErrors(t *testing.T) {
	expectErrors(t, [][]string{
		{"-worm", "melissa"},
		{"-defense", "firewall"},
		{"-v", "0"},
		{"-m", "0"},
		{"-i0", "5", "-v", "3"},
		{"-workers", "-2"},
		// A NaN rate used to reach the kernel and panic there.
		{"-rate", "NaN"},
		{"-patch-rate", "NaN"},
		{"-immunize-rate", "NaN"},
		// A duty cycle with a phase <= 0 is rejected, not run always-on.
		{"-duty-on", "-1s", "-duty-off", "1s"},
		{"-duty-on", "0", "-duty-off", "5s"},
		{"-duty-off", "10m"},
	})
}

// TestRunPresetPopulationOverride: an explicit -v wins over the -worm
// preset's population.
func TestRunPresetPopulationOverride(t *testing.T) {
	out := captureRun(t, []string{"-worm", "codered", "-v", "500", "-i0", "2", "-m", "5",
		"-rate", "20", "-horizon", "1s"})
	if !strings.Contains(out, "population: 500 hosts") {
		t.Errorf("-v 500 did not override the codered preset:\n%s", out)
	}
}

// TestRunKernelFlag pins the -kernel contract: valid backends run,
// print the selected kernel in the population header, and produce
// identical reports; anything else fails fast before the simulation.
func TestRunKernelFlag(t *testing.T) {
	base := []string{"-v", "1500", "-i0", "3", "-m", "10", "-rate", "30",
		"-seed", "9", "-horizon", "3s"}
	cases := []struct {
		kernel  string
		wantErr string // substring of the error; "" = must succeed
	}{
		{"heap", ""},
		{"wheel", ""},
		{"", ""}, // empty selects the heap default
		{"calendar", "unknown kernel"},
		{"Wheel", "unknown kernel"}, // case-sensitive
		{"heap ", "unknown kernel"},
	}
	outputs := map[string]string{}
	for _, c := range cases {
		args := append(append([]string{}, base...), "-kernel", c.kernel)
		if c.wantErr != "" {
			err := run(args)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("-kernel %q: error %v, want substring %q", c.kernel, err, c.wantErr)
			}
			continue
		}
		out := captureRun(t, args)
		shown := c.kernel
		if shown == "" {
			shown = "heap"
		}
		if !strings.Contains(out, "kernel: "+shown+" ") {
			t.Errorf("-kernel %q: header missing kernel name:\n%s", c.kernel, out)
		}
		if !strings.Contains(out, "population: 1500 hosts") {
			t.Errorf("-kernel %q: header missing population footprint:\n%s", c.kernel, out)
		}
		outputs[shown] = strings.Replace(out, "kernel: "+shown+" ", "kernel: X ", 1)
	}
	if outputs["heap"] != outputs["wheel"] {
		t.Errorf("heap and wheel reports differ:\n--- heap ---\n%s\n--- wheel ---\n%s",
			outputs["heap"], outputs["wheel"])
	}
}

func TestTopoRunGeneratedTopologies(t *testing.T) {
	for _, top := range []string{"tree", "scalefree", "smallworld"} {
		args := []string{"-v", "500", "-i0", "3", "-topology", top, "-edge-rate",
			"-rate", "0.5", "-patch-rate", "1", "-defense", "none",
			"-max-infected", "500", "-horizon", "30s", "-seed", "7"}
		out := captureRun(t, args)
		if !strings.Contains(out, "topology: "+top) || !strings.Contains(out, "lambda1") {
			t.Errorf("%s: report missing topology header:\n%s", top, out)
		}
	}
}

func TestTopoRunAdjacencyFile(t *testing.T) {
	// A 40-vertex binary tree: vertex i hangs off (i-1)/2.
	adj := "wormtopo v1 40 39\n"
	for i := 1; i < 40; i++ {
		adj += fmt.Sprintf("%d %d\n", (i-1)/2, i)
	}
	file := filepath.Join(t.TempDir(), "net.topo")
	if err := os.WriteFile(file, []byte(adj), 0o644); err != nil {
		t.Fatal(err)
	}
	// -v is overridden by the file's vertex count.
	out := captureRun(t, []string{"-v", "9999", "-i0", "2", "-topology", "file",
		"-topo-file", file, "-rate", "3", "-m", "2", "-horizon", "5s", "-seed", "2"})
	if !strings.Contains(out, "n=40") {
		t.Errorf("file topology did not fix the population:\n%s", out)
	}
}

func TestTopoRunSweepDeterministicAcrossWorkers(t *testing.T) {
	base := []string{"-v", "400", "-i0", "3", "-topology", "smallworld",
		"-edge-rate", "-rate", "0.4", "-patch-rate", "1", "-defense", "none",
		"-max-infected", "400", "-horizon", "20s", "-seed", "11", "-runs", "12"}
	ref := captureRun(t, append(base, "-workers", "1"))
	if ref == "" {
		t.Fatal("empty sweep report")
	}
	for _, workers := range []string{"3", "8"} {
		got := captureRun(t, append(base, "-workers", workers))
		if got != ref {
			t.Errorf("workers=%s topology sweep differs:\n--- workers=1 ---\n%s\n--- workers=%s ---\n%s",
				workers, ref, workers, got)
		}
	}
}

// reportCore returns the deterministic tail of a wormsim report — the
// lines from "defense:" onward — stripping the topology/kernel headers
// and the checkpoint/telemetry block whose byte counts may differ
// between a fresh and a resumed run.
func reportCore(t *testing.T, out string) string {
	t.Helper()
	if i := strings.Index(out, "defense:"); i >= 0 {
		return out[i:]
	}
	t.Fatalf("report has no defense line:\n%s", out)
	return ""
}

// ckptScenario is a supercritical graph outbreak still mid-spread at
// the 6s interruption horizon, so a resumed run genuinely fires new
// events rather than replaying a finished trajectory.
func ckptScenario(extra ...string) []string {
	base := []string{"-v", "400", "-i0", "3", "-topology", "smallworld",
		"-edge-rate", "-rate", "0.4", "-patch-rate", "1", "-defense", "none",
		"-max-infected", "400", "-seed", "11"}
	return append(base, extra...)
}

// TestRunCheckpointResumeEquivalence is the CLI half of the resume
// contract: run to an early horizon with checkpoints, resume to the
// full horizon, and the resumed report equals the uninterrupted run's
// byte for byte — for both kernels, and with the final report carrying
// the checkpoint telemetry series. The CI resume matrix re-runs it
// across trajectory seeds via WORMSIM_RESUME_SEED; the exact write
// count is pinned only for the default seed (other trajectories may
// finish between interval boundaries).
func TestRunCheckpointResumeEquivalence(t *testing.T) {
	seed := os.Getenv("WORMSIM_RESUME_SEED")
	defaultSeed := seed == ""
	if defaultSeed {
		seed = "11"
	}
	for _, kernel := range []string{"heap", "wheel"} {
		dir := t.TempDir()
		ref := captureRun(t, ckptScenario("-horizon", "40s", "-kernel", kernel,
			"-seed", seed))

		out := captureRun(t, ckptScenario("-horizon", "6s", "-kernel", kernel,
			"-seed", seed, "-checkpoint-dir", dir, "-checkpoint-interval", "2s"))
		if defaultSeed && !strings.Contains(out, "checkpoints: 3 writes") {
			t.Fatalf("kernel %s: interrupted run wrote unexpected checkpoint count:\n%s", kernel, out)
		}
		if !strings.Contains(out, "wormsim_checkpoint_writes_total ") {
			t.Errorf("kernel %s: telemetry series missing:\n%s", kernel, out)
		}

		resumed := captureRun(t, ckptScenario("-horizon", "40s", "-kernel", kernel,
			"-seed", seed, "-checkpoint-dir", dir, "-resume"))
		if !strings.Contains(resumed, "resume: generation ") {
			t.Fatalf("kernel %s: resume header missing:\n%s", kernel, resumed)
		}
		if got, want := reportCore(t, resumed), reportCore(t, ref); got != want {
			t.Errorf("kernel %s seed %s: resumed report differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s",
				kernel, seed, want, got)
		}
	}
}

// TestRunCheckpointSeedTruncated: when seeding alone
// reaches -max-infected, the run fires no event, and its summary is the
// same with and without -checkpoint-dir.
func TestRunCheckpointSeedTruncated(t *testing.T) {
	args := []string{"-v", "2000", "-i0", "10", "-max-infected", "5",
		"-defense", "none", "-patch-rate", "0.1", "-seed", "7"}
	plain := captureRun(t, args)
	ckpt := captureRun(t, append(args[:len(args):len(args)], "-checkpoint-dir", t.TempDir()))
	if got, want := reportCore(t, ckpt), reportCore(t, plain); got != want {
		t.Errorf("checkpointed report differs from the plain run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestRunCheckpointFlagValidation pins the fail-fast contract of the
// checkpoint flags: misuse and scenario mismatches are rejected with a
// clear error before any simulation, never by silently producing a
// different trajectory, while a -kernel change is no mismatch.
func TestRunCheckpointFlagValidation(t *testing.T) {
	// A populated checkpoint directory for the mismatch cases.
	seeded := t.TempDir()
	captureRun(t, ckptScenario("-horizon", "6s",
		"-checkpoint-dir", seeded, "-checkpoint-interval", "2s"))

	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"resume without dir", ckptScenario("-horizon", "6s", "-resume"),
			"-resume needs -checkpoint-dir"},
		{"zero interval", ckptScenario("-horizon", "6s",
			"-checkpoint-dir", t.TempDir(), "-checkpoint-interval", "0s"),
			"must be positive"},
		{"negative interval", ckptScenario("-horizon", "6s",
			"-checkpoint-dir", t.TempDir(), "-checkpoint-interval", "-3s"),
			"must be positive"},
		{"sweep with checkpoints", append(ckptScenario("-horizon", "6s",
			"-checkpoint-dir", t.TempDir()), "-runs", "4"),
			"single run"},
		{"resume from empty dir", ckptScenario("-horizon", "6s",
			"-checkpoint-dir", t.TempDir(), "-resume"),
			"no valid checkpoint"},
		{"seed mismatch", append(ckptScenario("-horizon", "40s",
			"-checkpoint-dir", seeded, "-resume"), "-seed", "12"),
			"checkpoint Seed \"11\" does not match configuration \"12\""},
		{"topology mismatch", []string{"-v", "400", "-i0", "3", "-rate", "0.4",
			"-patch-rate", "1", "-defense", "none", "-max-infected", "400",
			"-seed", "11", "-horizon", "40s",
			"-checkpoint-dir", seeded, "-resume"},
			"does not match configuration"},
	}
	for _, c := range cases {
		err := run(c.args)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.wantErr)
		}
	}

	// A cut resumes on the other kernel to the same final report.
	ref := captureRun(t, ckptScenario("-horizon", "40s"))
	resumed := captureRun(t, ckptScenario("-horizon", "40s", "-kernel", "wheel",
		"-checkpoint-dir", seeded, "-resume"))
	if got, want := reportCore(t, resumed), reportCore(t, ref); got != want {
		t.Errorf("heap cut resumed on the wheel:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

func TestTopoRunErrors(t *testing.T) {
	expectErrors(t, [][]string{
		// Unknown topology name.
		{"-v", "100", "-topology", "torus"},
		// -topology file without a file.
		{"-v", "100", "-topology", "file"},
		// -topo-file without -topology file.
		{"-v", "100", "-topo-file", "/nonexistent"},
		// -edge-rate without a graph.
		{"-v", "100", "-edge-rate", "-horizon", "1s"},
		// Generator rejects a degenerate parameterization.
		{"-v", "100", "-topology", "tree", "-topo-degree", "0"},
	})
}

package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func quickOpts() Options {
	return Options{Seed: 7, Quick: true}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ablation-defense", "ablation-detection", "ablation-deterministic",
		"ablation-intrusiveness", "ablation-preference", "ablation-stealth",
		"catalogue", "claims", "fig1", "fig10", "fig11", "fig12", "fig2",
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fleet-convergence", "sketch-accuracy", "table1", "topology-containment",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("fig99", quickOpts()); err == nil {
		t.Error("expected error for unknown artifact")
	}
}

func TestTable1(t *testing.T) {
	res, err := Run("table1", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.Notes, "\n")
	for _, want := range []string{"1/p=11930", "1/p=35791", "guaranteed-extinction=true"} {
		if !strings.Contains(joined, want) {
			t.Errorf("table1 notes missing %q:\n%s", want, joined)
		}
	}
}

func TestFig3ExtinctionOrdering(t *testing.T) {
	res, err := Run("fig3", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d, want 3 (M sweep)", len(res.Series))
	}
	// At generation 10, the smaller M must have higher extinction
	// probability (Fig. 3's visible ordering). Series are M=5000, 7500,
	// 10000 in order.
	p5, p75, p10 := res.Series[0].Y[10], res.Series[1].Y[10], res.Series[2].Y[10]
	if !(p5 > p75 && p75 > p10) {
		t.Errorf("ordering violated: %v, %v, %v", p5, p75, p10)
	}
	for _, s := range res.Series {
		if s.Y[0] != 0 {
			t.Errorf("%s: P_0 = %v, want 0", s.Label, s.Y[0])
		}
		if last := s.Y[len(s.Y)-1]; last <= 0.5 {
			t.Errorf("%s: P_20 = %v, expected substantial extinction", s.Label, last)
		}
	}
}

func TestFig4And5Consistent(t *testing.T) {
	pmf, err := Run("fig4", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	cdf, err := Run("fig5", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// CDF at each k is the running PMF sum, per matching series.
	for si := range pmf.Series {
		running := 0.0
		for k := range pmf.Series[si].Y {
			running += pmf.Series[si].Y[k]
			if diff := running - cdf.Series[si].Y[k]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("series %d: CDF mismatch at k=%d", si, k)
			}
		}
	}
}

func TestFig6Statistics(t *testing.T) {
	res, err := Run("fig6", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 6 {
		t.Fatalf("series = %d, want the six most active hosts", len(res.Series))
	}
	// Curves are cumulative: non-decreasing.
	for _, s := range res.Series {
		prev := -1.0
		for _, y := range s.Y {
			if y < prev {
				t.Fatalf("%s: growth curve decreased", s.Label)
			}
			prev = y
		}
	}
	joined := strings.Join(res.Notes, "\n")
	for _, want := range []string{"paper: 97%", "paper: 6", "false alarms with M=5000", "containment cycle"} {
		if !strings.Contains(joined, want) {
			t.Errorf("fig6 notes missing %q:\n%s", want, joined)
		}
	}
}

func TestFig7SimTracksTheory(t *testing.T) {
	res, err := Run("fig7", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d, want sim + theory", len(res.Series))
	}
	joined := strings.Join(res.Notes, "\n")
	if !strings.Contains(joined, "KS(sim, Borel-Tanner)") {
		t.Errorf("fig7 notes missing KS distance:\n%s", joined)
	}
}

func TestFig8HeadlineProbability(t *testing.T) {
	res, err := Run("fig8", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	sim150 := res.Series[0].Y[150]
	if sim150 < 0.85 || sim150 > 1 {
		t.Errorf("P{I<=150} = %v, paper reads ≈0.95", sim150)
	}
	// CDF series must be monotone.
	for _, s := range res.Series {
		prev := -1.0
		for _, y := range s.Y {
			if y < prev-1e-12 {
				t.Fatalf("%s: CDF not monotone", s.Label)
			}
			prev = y
		}
	}
}

func TestFig11And12Slammer(t *testing.T) {
	pmf, err := Run("fig11", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if pmf.Series[0].Y[10] == 0 {
		t.Error("I = I0 = 10 should carry visible mass for Slammer")
	}
	cdf, err := Run("fig12", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := cdf.Series[0].Y[20]; got < 0.85 {
		t.Errorf("P{I<=20} = %v, paper: containment below 20 w.h.p.", got)
	}
}

func TestFig2Generations(t *testing.T) {
	res, err := Run("fig2", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	if res.Series[0].Y[0] != 10 {
		t.Errorf("generation 0 = %v, want I0 = 10", res.Series[0].Y[0])
	}
	// Theory series starts at I0 and decays by λ < 1.
	theory := res.Series[1].Y
	if theory[0] != 10 {
		t.Errorf("theory generation 0 = %v", theory[0])
	}
	for g := 1; g < len(theory); g++ {
		if theory[g] >= theory[g-1] {
			t.Fatalf("subcritical mean should decay per generation")
		}
	}
}

func TestFig9And10SamplePaths(t *testing.T) {
	for _, id := range []string{"fig9", "fig10"} {
		res, err := Run(id, quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Series) != 3 {
			t.Fatalf("%s: series = %d, want 3 paths", id, len(res.Series))
		}
		// Accumulated infected (series 0) and removed (series 1) are
		// non-decreasing; active (series 2) = infected − removed.
		inf, rem, act := res.Series[0], res.Series[1], res.Series[2]
		for i := range inf.Y {
			if i > 0 && (inf.Y[i] < inf.Y[i-1] || rem.Y[i] < rem.Y[i-1]) {
				t.Fatalf("%s: accumulated path decreased at %d", id, i)
			}
			if diff := inf.Y[i] - rem.Y[i] - act.Y[i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("%s: active != infected - removed at %d", id, i)
			}
		}
		// Contained: ends extinct with all infected removed.
		last := len(inf.Y) - 1
		if inf.Y[last] != rem.Y[last] || act.Y[last] != 0 {
			t.Errorf("%s: path does not end with full removal", id)
		}
	}
}

func TestAblationDefenseShape(t *testing.T) {
	res, err := Run("ablation-defense", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d, want fast + slow", len(res.Series))
	}
	// Series Y layout: [none, m-limit, throttle, quarantine].
	for i, worm := range []string{"fast", "slow"} {
		y := res.Series[i].Y
		none, mlimit := y[0], y[1]
		if mlimit >= none {
			t.Errorf("%s worm: m-limit (%v) should beat no defense (%v)", worm, mlimit, none)
		}
		if mlimit > 100 {
			t.Errorf("%s worm: m-limit mean %v, expected tight containment", worm, mlimit)
		}
	}
	// The slow worm must defeat the throttle (mean total near the
	// uncontained level, far above the m-limit level).
	slow := res.Series[1].Y
	if slow[2] < 5*slow[1] {
		t.Errorf("slow worm: throttle (%v) should NOT contain like the m-limit (%v)",
			slow[2], slow[1])
	}
}

func TestAblationDeterministicNotes(t *testing.T) {
	res, err := Run("ablation-deterministic", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.Notes, "\n")
	for _, want := range []string{"RCS analytic", "two-factor", "std"} {
		if !strings.Contains(joined, want) {
			t.Errorf("notes missing %q:\n%s", want, joined)
		}
	}
}

func TestAblationPreferenceSpreads(t *testing.T) {
	res, err := Run("ablation-preference", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	meanOf := func(s Series) float64 {
		sum := 0.0
		for _, y := range s.Y {
			sum += y
		}
		return sum / float64(len(s.Y))
	}
	uniform, pref := meanOf(res.Series[0]), meanOf(res.Series[1])
	if uniform > 7 {
		t.Errorf("uniform worm mean %v, should die almost immediately (λ≈0.003)", uniform)
	}
	if pref < 2*uniform {
		t.Errorf("preference worm mean %v should far exceed uniform %v", pref, uniform)
	}
}

func TestClaimsCoverPaperNumbers(t *testing.T) {
	res, err := Run("claims", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.Notes, "\n")
	for _, want := range []string{
		"11930", "35791", "paper 58", "2035",
		"P{I<=150}", "P{I>20}", "P{I<=360}", "DesignM",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("claims missing %q:\n%s", want, joined)
		}
	}
}

func TestFormatAndSummary(t *testing.T) {
	res, err := Run("table1", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	text := res.Format()
	if !strings.Contains(text, "== table1:") || !strings.Contains(text, "note:") {
		t.Errorf("Format output malformed:\n%s", text)
	}
	sum := res.Summary()
	if !strings.Contains(sum, "== table1:") {
		t.Errorf("Summary output malformed:\n%s", sum)
	}
}

// TestRunAllQuick checks RunAll's contract on the catalogue pass: every
// registered artifact runs without error and carries notes, on every
// kernel and worker count the catalogue uses.
func TestRunAllQuick(t *testing.T) {
	eachArtifact(t, wholeCatalogue(t), func(t *testing.T, _ string, legs [2][2]catalogueRun) {
		for _, leg := range legs {
			for _, r := range leg {
				if r.notes == 0 {
					t.Errorf("seed %d %v workers=%d: no notes", r.opts.Seed, r.opts.kernel, r.opts.Workers)
				}
			}
		}
	})
}

// TestDeterministicAcrossInvocations pins the headline Monte-Carlo
// figure to the fingerprints an earlier invocation recorded, on every
// catalogue run.
func TestDeterministicAcrossInvocations(t *testing.T) {
	eachArtifact(t, []string{"fig7"}, matchGolden(readGolden(t)))
}

func TestAblationDetectionFootprints(t *testing.T) {
	res, err := Run("ablation-detection", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.Notes, "\n")
	for _, want := range []string{"threshold(", "kalman-trend(", "ewma(", "q99 outbreak"} {
		if !strings.Contains(joined, want) {
			t.Errorf("notes missing %q:\n%s", want, joined)
		}
	}
	// The uncontained infected series must be non-decreasing.
	prev := -1.0
	for _, y := range res.Series[0].Y {
		if y < prev {
			t.Fatal("infected series decreased")
		}
		prev = y
	}
}

func TestAblationIntrusivenessTwoSided(t *testing.T) {
	res, err := Run("ablation-intrusiveness", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d, want containment + fp-rate", len(res.Series))
	}
	infected, fp := res.Series[0].Y, res.Series[1].Y
	// Layout: [none, m-limit, throttle, quarantine].
	if infected[1] >= infected[0]/10 {
		t.Errorf("m-limit containment weak: %v vs none %v", infected[1], infected[0])
	}
	if fp[1] != 0 {
		t.Errorf("m-limit false-positive rate %v, want 0 on repeat-heavy traffic", fp[1])
	}
	joined := strings.Join(res.Notes, "\n")
	for _, want := range []string{"bursty-legit", "delayed"} {
		if !strings.Contains(joined, want) {
			t.Errorf("notes missing %q", want)
		}
	}
}

func TestAblationStealthShape(t *testing.T) {
	res, err := Run("ablation-stealth", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 {
		t.Fatalf("series = %d", len(res.Series))
	}
	// Layout: [none, throttle, m-limit]. The throttle must fail against
	// the burst/sleep worm while the M-limit contains it.
	y := res.Series[0].Y
	if y[1] < y[0]/2 {
		t.Errorf("throttle (%v) should barely help vs none (%v)", y[1], y[0])
	}
	if y[2] > y[0]/10 {
		t.Errorf("m-limit (%v) should contain the stealth worm (none: %v)", y[2], y[0])
	}
	joined := strings.Join(res.Notes, "\n")
	for _, want := range []string{"always-on", "stealth (10s on / 90s off)"} {
		if !strings.Contains(joined, want) {
			t.Errorf("notes missing %q", want)
		}
	}
}

func TestWriteTSV(t *testing.T) {
	res, err := Run("fig3", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.WriteTSV(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig3_0.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.Contains(text, "x\ty") || !strings.Contains(text, "M = 5000") {
		t.Errorf("tsv content:\n%s", text[:200])
	}
	lines := strings.Count(text, "\n")
	if lines != 2+21 { // comment + header + 21 generations
		t.Errorf("tsv line count = %d", lines)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig3_notes.txt")); err != nil {
		t.Errorf("notes file missing: %v", err)
	}
}

func TestFig1TreeStructure(t *testing.T) {
	res, err := Run("fig1", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 {
		t.Fatalf("series = %d", len(res.Series))
	}
	// Scatter: generations non-negative, seeds at t=0 gen=0.
	if res.Series[0].Y[0] != 0 || res.Series[0].X[0] != 0 {
		t.Errorf("seed point = (%v, %v)", res.Series[0].X[0], res.Series[0].Y[0])
	}
	joined := strings.Join(res.Notes, "\n")
	for _, want := range []string{"lineage", "gen 0", "tree verified"} {
		if !strings.Contains(joined, want) {
			t.Errorf("notes missing %q", want)
		}
	}
}

func TestCatalogueCoversPresets(t *testing.T) {
	res, err := Run("catalogue", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.Notes, "\n")
	for _, want := range []string{"Code Red:", "SQL Slammer:", "Witty:", "Sasser:", "Blaster:"} {
		if !strings.Contains(joined, want) {
			t.Errorf("catalogue missing %q", want)
		}
	}
	// Designed M never exceeds the Proposition-1 threshold.
	th, designed := res.Series[0].Y, res.Series[1].Y
	for i := range th {
		if designed[i] >= th[i] {
			t.Errorf("preset %d: designed M %v >= threshold %v", i, designed[i], th[i])
		}
	}
}

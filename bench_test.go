// Package bench is the repository-level benchmark harness: one
// testing.B target per artifact of the paper's evaluation (DESIGN.md's
// per-experiment index E1–E13 and ablations A1–A6). Each benchmark
// regenerates its figure or table end to end through the same runners
// cmd/experiments uses, so
//
//	go test -bench=. -benchmem
//
// at the repository root re-derives the entire evaluation. Benchmarks
// run the runners in Quick mode (reduced Monte-Carlo replication) to
// keep a full -bench=. sweep tractable; cmd/experiments without -quick
// reproduces the paper's full 1000-run versions.
package bench

import (
	"testing"

	"wormcontain/internal/experiments"
)

// benchOpts fixes the seed so every benchmark iteration does identical
// work.
func benchOpts() experiments.Options {
	return experiments.Options{Seed: 20050628, Quick: true}
}

// runArtifact executes one registered artifact per iteration and fails
// the benchmark on any error.
func runArtifact(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Notes) == 0 && len(res.Series) == 0 {
			b.Fatalf("%s produced no output", id)
		}
	}
}

// E1 — Table I parameters and Proposition 1 thresholds (11 930 / 35 791).
func BenchmarkTable1Thresholds(b *testing.B) { runArtifact(b, "table1") }

// E2a — Fig. 1: the generation-wise infection tree.
func BenchmarkFig1InfectionTree(b *testing.B) { runArtifact(b, "fig1") }

// E2 — Fig. 2: generation-wise growth of infected hosts.
func BenchmarkFig2GenerationGrowth(b *testing.B) { runArtifact(b, "fig2") }

// E3 — Fig. 3: extinction probability per generation, M sweep.
func BenchmarkFig3Extinction(b *testing.B) { runArtifact(b, "fig3") }

// E4 — Fig. 4: Borel–Tanner PMF of total infections, Code Red.
func BenchmarkFig4BorelTannerPMF(b *testing.B) { runArtifact(b, "fig4") }

// E5 — Fig. 5: Borel–Tanner CDF of total infections, Code Red.
func BenchmarkFig5BorelTannerCDF(b *testing.B) { runArtifact(b, "fig5") }

// E6 — Fig. 6: distinct-destination growth of the six most active trace
// hosts plus the non-intrusiveness audit.
func BenchmarkFig6TraceGrowth(b *testing.B) { runArtifact(b, "fig6") }

// E7 — Fig. 7: simulated frequency of I vs Borel–Tanner PMF, Code Red.
func BenchmarkFig7SimVsTheoryPMF(b *testing.B) { runArtifact(b, "fig7") }

// E8 — Fig. 8: simulated cumulative frequency vs Borel–Tanner CDF
// (P{I<=150} ≈ 0.95).
func BenchmarkFig8SimVsTheoryCDF(b *testing.B) { runArtifact(b, "fig8") }

// E9 — Fig. 9: large-outbreak sample path (accumulated infected/removed,
// active).
func BenchmarkFig9SamplePath(b *testing.B) { runArtifact(b, "fig9") }

// E9b — Fig. 10: typical (median) sample path.
func BenchmarkFig10SamplePathTypical(b *testing.B) { runArtifact(b, "fig10") }

// E10 — Fig. 11: Slammer PMF, simulation vs theory.
func BenchmarkFig11SlammerPMF(b *testing.B) { runArtifact(b, "fig11") }

// E11 — Fig. 12: Slammer CDF, simulation vs theory.
func BenchmarkFig12SlammerCDF(b *testing.B) { runArtifact(b, "fig12") }

// E12 — the Section III–V text claims (moments, tail bounds, DesignM).
func BenchmarkTextClaims(b *testing.B) { runArtifact(b, "claims") }

// E13 — the historical-worm design catalogue (extension).
func BenchmarkWormCatalogue(b *testing.B) { runArtifact(b, "catalogue") }

// A1 — defense ablation: M-limit vs throttle vs quarantine vs none on
// fast and slow worms.
func BenchmarkAblationDefenses(b *testing.B) { runArtifact(b, "ablation-defense") }

// A2 — deterministic epidemic models vs stochastic early phase.
func BenchmarkAblationDeterministicVsStochastic(b *testing.B) {
	runArtifact(b, "ablation-deterministic")
}

// A3 — preference-scanning extension under the M-limit.
func BenchmarkAblationPreferenceScan(b *testing.B) { runArtifact(b, "ablation-preference") }

// A4 — detection-system footprints (threshold / Kalman-trend / EWMA) vs
// the detection-free M-limit.
func BenchmarkAblationDetection(b *testing.B) { runArtifact(b, "ablation-detection") }

// A5 — containment vs collateral damage on legitimate traffic.
func BenchmarkAblationIntrusiveness(b *testing.B) { runArtifact(b, "ablation-intrusiveness") }

// A6 — stealth (burst/sleep) worm vs rate throttle and M-limit.
func BenchmarkAblationStealth(b *testing.B) { runArtifact(b, "ablation-stealth") }

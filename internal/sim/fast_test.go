package sim

import (
	"math"
	"slices"
	"testing"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/defense"
	"wormcontain/internal/dist"
	"wormcontain/internal/rng"
	"wormcontain/internal/stats"
)

func TestFastConfigValidation(t *testing.T) {
	bad := []FastConfig{
		{V: 0, SpaceSize: 100, M: 1, I0: 1},
		{V: 10, SpaceSize: 0, M: 1, I0: 1},
		{V: 10, SpaceSize: 5, M: 1, I0: 1},
		{V: 10, SpaceSize: 100, M: -1, I0: 1},
		{V: 10, SpaceSize: 100, M: 1, I0: 0},
		{V: 10, SpaceSize: 100, M: 1, I0: 11},
	}
	for i, cfg := range bad {
		if _, err := FastTotal(cfg, rng.NewSplitMix64(1)); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestFastTotalZeroScansIsSeedsOnly(t *testing.T) {
	cfg := FastConfig{V: 100, SpaceSize: 1 << 20, M: 0, I0: 7}
	got, err := FastTotal(cfg, rng.NewSplitMix64(2))
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("total = %d, want I0 = 7", got)
	}
}

func TestFastTotalBounds(t *testing.T) {
	cfg := FastConfig{V: 500, SpaceSize: 1 << 14, M: 40, I0: 3}
	src := rng.NewPCG64(3, 0)
	for i := 0; i < 200; i++ {
		total, err := FastTotal(cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		if total < cfg.I0 || total > cfg.V {
			t.Fatalf("total %d outside [I0, V]", total)
		}
	}
}

func TestRunFastMonteCarloValidation(t *testing.T) {
	good := FastConfig{V: 10, SpaceSize: 100, M: 1, I0: 1}
	if _, err := RunFastMonteCarlo(good, 0); err == nil {
		t.Error("expected error for runs = 0")
	}
	badCfg := FastConfig{V: 0, SpaceSize: 100, M: 1, I0: 1}
	if _, err := RunFastMonteCarlo(badCfg, 10); err == nil {
		t.Error("expected config validation error")
	}
}

func TestFastMonteCarloMatchesBorelTanner(t *testing.T) {
	// The paper's Fig. 7 check at library level: Code Red, M = 10000,
	// I0 = 10, 1000 replications versus the Borel–Tanner PMF.
	cfg := FastConfig{V: 360000, SpaceSize: 1 << 32, M: 10000, I0: 10, Seed: 42}
	mc, err := RunFastMonteCarlo(cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := dist.NewBorelTanner(float64(cfg.M)*float64(cfg.V)/cfg.SpaceSize, cfg.I0)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := mc.Summary()
	if err != nil {
		t.Fatal(err)
	}
	// Mean within 4 standard errors.
	se := math.Sqrt(bt.Var() / 1000)
	if math.Abs(sum.Mean-bt.Mean()) > 4*se {
		t.Errorf("MC mean %v vs Borel–Tanner %v (se %v)", sum.Mean, bt.Mean(), se)
	}
	// Distribution shape: Kolmogorov–Smirnov distance of the CDFs. (A
	// per-point TV comparison at n = 1000 is dominated by sampling
	// noise across the ~400-point support.) The 99% KS critical value
	// at n = 1000 is 1.63/sqrt(1000) ≈ 0.052.
	const kMax = 400
	cum := mc.CumFreq(kMax)
	ks := stats.KolmogorovSmirnov(cum, bt.CDFSeries(kMax))
	if ks > 0.06 {
		t.Errorf("KS(sim, theory) = %v, want < 0.06 at 1000 runs", ks)
	}
	// Fig. 8 headline: P{I <= 150} ≈ 0.95.
	if cum[150] < 0.90 || cum[150] > 0.99 {
		t.Errorf("empirical P{I<=150} = %v, paper reads ≈0.95", cum[150])
	}
}

func TestFastMonteCarloSlammer(t *testing.T) {
	// Fig. 11/12 regime: Slammer V = 120000, M = 10000, I0 = 10; the
	// containment keeps infections below ~20 with high probability.
	cfg := FastConfig{V: 120000, SpaceSize: 1 << 32, M: 10000, I0: 10, Seed: 43}
	mc, err := RunFastMonteCarlo(cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	cum := mc.CumFreq(40)
	if cum[20] < 0.90 {
		t.Errorf("empirical P{I<=20} = %v, paper claims ~0.95", cum[20])
	}
}

func TestFastMonteCarloDeterministic(t *testing.T) {
	cfg := FastConfig{V: 5000, SpaceSize: 1 << 24, M: 2000, I0: 5, Seed: 44}
	a, err := RunFastMonteCarlo(cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFastMonteCarlo(cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Totals {
		if a.Totals[i] != b.Totals[i] {
			t.Fatalf("replication %d diverged: %d vs %d", i, a.Totals[i], b.Totals[i])
		}
	}
}

func TestFastMonteCarloWorkerCountInvariant(t *testing.T) {
	// The parallel engine's contract: replication r always draws from
	// stream r and merges in replication order, so the Monte-Carlo result
	// is bit-for-bit identical for every worker count.
	cfg := FastConfig{V: 5000, SpaceSize: 1 << 24, M: 2000, I0: 5, Seed: 44}
	ref, err := RunFastMonteCarloWorkers(cfg, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 64} {
		got, err := RunFastMonteCarloWorkers(cfg, 200, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got.Totals) != len(ref.Totals) {
			t.Fatalf("workers=%d: %d totals, want %d", workers, len(got.Totals), len(ref.Totals))
		}
		for i := range ref.Totals {
			if got.Totals[i] != ref.Totals[i] {
				t.Fatalf("workers=%d: replication %d = %d, want %d",
					workers, i, got.Totals[i], ref.Totals[i])
			}
		}
		lo, hi, _ := ref.Hist.Range()
		glo, ghi, _ := got.Hist.Range()
		if glo != lo || ghi != hi {
			t.Fatalf("workers=%d: histogram range [%d,%d], want [%d,%d]", workers, glo, ghi, lo, hi)
		}
		// Both histograms hold the same number of runs, so equal
		// frequencies are equal counts.
		gf, rf := got.Hist.RelFreq(hi), ref.Hist.RelFreq(hi)
		for v := lo; v <= hi; v++ {
			if gf[v] != rf[v] {
				t.Fatalf("workers=%d: hist[%d] = %v of the runs, want %v", workers, v, gf[v], rf[v])
			}
		}
	}
	// Replication r draws stream r whatever the run count, so a run of
	// n replications is the first n totals of any longer run.
	for _, workers := range []int{1, 2, 8, 64} {
		got, err := RunFastMonteCarloWorkers(cfg, 37, workers)
		if err != nil {
			t.Fatalf("workers=%d, 37 runs: %v", workers, err)
		}
		if !slices.Equal(got.Totals, ref.Totals[:37]) {
			t.Fatalf("workers=%d: 37 runs gave\n %v\nwant the first 37 of 200 runs\n %v",
				workers, got.Totals, ref.Totals[:37])
		}
	}
}

func TestFastAgreesWithFullDES(t *testing.T) {
	// Cross-engine validation: the generational engine and the full
	// discrete-event engine sample the same total-infection
	// distribution. Small contained scenario, moderate replication.
	if testing.Short() {
		t.Skip("cross-engine comparison is moderately expensive")
	}
	pfx, _ := addr.ParsePrefix("10.9.0.0/16")
	const (
		v    = 2000
		m    = 20
		i0   = 5
		runs = 300
	)
	fastCfg := FastConfig{V: v, SpaceSize: float64(pfx.Size()), M: m, I0: i0, Seed: 50}
	fast, err := RunFastMonteCarlo(fastCfg, runs)
	if err != nil {
		t.Fatal(err)
	}
	desTotals := make([]int, 0, runs)
	for r := 0; r < runs; r++ {
		d, err := defense.NewMLimit(m, 365*24*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		routable, err := addr.NewRoutable([]addr.Prefix{pfx})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			V: v, I0: i0, ScanRate: 50,
			Scanner: routable, Defense: d,
			ClusterPrefix: &pfx,
			Seed:          51, Stream: uint64(r),
		})
		if err != nil {
			t.Fatal(err)
		}
		desTotals = append(desTotals, res.TotalInfected)
	}
	fastSum, err := fast.Summary()
	if err != nil {
		t.Fatal(err)
	}
	desSum, err := stats.SummarizeInts(desTotals)
	if err != nil {
		t.Fatal(err)
	}
	// Two-sample mean comparison with combined standard error.
	se := math.Sqrt(fastSum.Variance/float64(fastSum.N) + desSum.Variance/float64(desSum.N))
	if math.Abs(fastSum.Mean-desSum.Mean) > 5*se+0.5 {
		t.Errorf("fast mean %v vs DES mean %v (se %v)", fastSum.Mean, desSum.Mean, se)
	}
}

func BenchmarkFastTotalCodeRed(b *testing.B) {
	cfg := FastConfig{V: 360000, SpaceSize: 1 << 32, M: 10000, I0: 10, Seed: 1}
	src := rng.NewPCG64(1, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FastTotal(cfg, src); err != nil {
			b.Fatal(err)
		}
	}
}

// FastTotal simulates one outbreak generation by generation and returns
// the total number of hosts ever infected.
//
// Statistical equivalence to the full event simulation: with uniform
// scanning, each of a host's M scans independently lands on any given
// address with probability 1/SpaceSize, so the number of scans that hit
// the vulnerable set is Binomial(M, V/SpaceSize), and each hit strikes a
// uniformly random vulnerable host. The M-limit makes every infected
// host perform exactly M scans before removal, and the distribution of
// the total infection count I does not depend on *when* scans happen —
// only on which hosts they hit. Hits on already-infected or removed
// hosts are wasted, which reproduces the finite-population saturation
// the Borel–Tanner approximation ignores.
func FastTotal(cfg FastConfig, src rng.Source) (int, error) {
	return fastTotalScratch(cfg, src, new(fastScratch))
}

package experiments

import (
	"fmt"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/core"
	"wormcontain/internal/defense"
	"wormcontain/internal/epidemic"
	"wormcontain/internal/parallel"
	"wormcontain/internal/rng"
	"wormcontain/internal/sim"
	"wormcontain/internal/stats"
)

func init() {
	register("ablation-defense", runAblationDefense)
	register("ablation-deterministic", runAblationDeterministic)
	register("ablation-preference", runAblationPreference)
}

// enterprisePrefix is the address block of the ablation scenarios' model
// enterprise: 2000 vulnerable hosts inside one /16.
const enterprisePrefix = "10.50.0.0/16"

// enterpriseConfig builds a worm-in-enterprise DES configuration: the
// scanner sweeps only the enterprise block, so the vulnerability density
// is 2000/65536 ≈ 0.03 and outbreaks resolve in seconds of virtual time.
func enterpriseConfig(scanRate float64, d defense.Defense, seed, stream uint64) (sim.Config, error) {
	pfx, err := addr.ParsePrefix(enterprisePrefix)
	if err != nil {
		return sim.Config{}, err
	}
	routable, err := addr.NewRoutable([]addr.Prefix{pfx})
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		V:             2000,
		I0:            5,
		ScanRate:      scanRate,
		Scanner:       routable,
		Defense:       d,
		ClusterPrefix: &pfx,
		MaxInfected:   2000,
		Seed:          seed,
		Stream:        stream,
	}, nil
}

// runAblationDefense compares the paper's M-limit against the
// rate-based baselines on a fast worm and a slow worm (A1). The paper's
// argument: rate throttles stop fast worms but are blind to scanners
// below the service rate, while the total-scan limit contains both.
func runAblationDefense(opts Options) (*Result, error) {
	opts = opts.normalize()
	runs := 5
	horizonFast, horizonSlow := 5*time.Minute, 4*time.Hour
	if opts.Quick {
		runs = 2
		horizonFast, horizonSlow = 2*time.Minute, 1*time.Hour
	}

	// λ = M·p with p = 2000/65536: M = 25 gives λ ≈ 0.76 < 1, inside
	// the Proposition 1 guarantee (threshold 1/p ≈ 32.8).
	const mLimit = 25

	type cell struct {
		worm    string
		rate    float64
		horizon time.Duration
	}
	worms := []cell{
		{"fast worm (20 scans/s)", 20, horizonFast},
		// The slow worm scans at 0.5/s, under the throttle's 1/s
		// service rate — the paper's "slow scanning worms ... will
		// however elude detection" case.
		{"slow worm (0.5 scans/s)", 0.5, horizonSlow},
	}
	defenses := []func(stream uint64) (defense.Defense, error){
		func(uint64) (defense.Defense, error) { return defense.Null{}, nil },
		func(uint64) (defense.Defense, error) {
			return defense.NewMLimit(mLimit, 365*24*time.Hour)
		},
		func(uint64) (defense.Defense, error) { return defense.NewWilliamsonThrottle(), nil },
		func(stream uint64) (defense.Defense, error) {
			return defense.NewQuarantine(0.001, time.Minute, rng.NewPCG64(opts.Seed^0x51a4, stream))
		},
	}

	res := &Result{
		ID:    "ablation-defense",
		Title: "A1: defense comparison (none / M-limit / throttle / quarantine), fast and slow worms",
	}
	// One simulation arena per worker slot, shared by every cell of the
	// comparison grid: replications reuse the event-kernel pools and
	// population storage instead of reallocating them 8×runs times.
	pool := parallel.NewScratchPool(parallel.ClampWorkers(opts.Workers, runs), sim.NewScratch)
	for _, w := range worms {
		var labels []string
		var means []float64
		for di, mk := range defenses {
			// One defense instance per replication, built inside the
			// replication function: each parallel worker owns its defense
			// and RNG streams exclusively.
			type cell struct {
				name  string
				total int
			}
			cells, err := parallel.MapSlot(runs, opts.Workers, func(r, slot int) (cell, error) {
				d, err := mk(uint64(r))
				if err != nil {
					return cell{}, err
				}
				cfg, err := enterpriseConfig(w.rate, d, opts.Seed, uint64(di*1000+r))
				if err != nil {
					return cell{}, err
				}
				cfg.Horizon = w.horizon
				cfg.Kernel = opts.kernel
				out, err := sim.RunWith(cfg, pool.Get(slot))
				if err != nil {
					return cell{}, err
				}
				return cell{name: d.Name(), total: out.TotalInfected}, nil
			})
			if err != nil {
				return nil, err
			}
			totals := make([]int, 0, runs)
			var name string
			for _, c := range cells {
				totals = append(totals, c.total)
				name = c.name
			}
			sum, err := stats.SummarizeInts(totals)
			if err != nil {
				return nil, err
			}
			labels = append(labels, name)
			means = append(means, sum.Mean)
			res.Notes = append(res.Notes, fmt.Sprintf(
				"%s under %s: mean total infected %.1f of 2000 (%.1f%%) over %d runs",
				w.worm, name, sum.Mean, 100*sum.Mean/2000, runs))
		}
		xs := make([]float64, len(means))
		for i := range xs {
			xs[i] = float64(i)
		}
		res.Series = append(res.Series, Series{
			Label: w.worm + " — mean total infected by defense " + fmt.Sprint(labels),
			X:     xs,
			Y:     means,
		})
	}
	res.Notes = append(res.Notes,
		"expected shape: the M-limit contains BOTH worms to a handful of hosts; "+
			"the throttle only slows the fast worm and leaves the slow worm uncontained; "+
			"no defense saturates the population")
	return res, nil
}

// runAblationDeterministic contrasts the deterministic epidemic curves
// (RCS, two-factor) with the stochastic early phase (A2): the ODE models
// track only the mean and cannot express the run-to-run variability the
// branching process predicts.
func runAblationDeterministic(opts Options) (*Result, error) {
	opts = opts.normalize()
	runs := 10
	horizon := 100 * time.Minute
	if opts.Quick {
		runs = 3
		horizon = 40 * time.Minute
	}

	// Uncontained Code Red early phase at 6 scans/s.
	const scanRate = 6.0
	pool := parallel.NewScratchPool(parallel.ClampWorkers(opts.Workers, runs), sim.NewScratch)
	finals, err := parallel.MapSlot(runs, opts.Workers, func(r, slot int) (int, error) {
		cfg := sim.Config{
			V:           360000,
			I0:          10,
			ScanRate:    scanRate,
			Horizon:     horizon,
			MaxInfected: 20000,
			Seed:        opts.Seed,
			Stream:      uint64(r),
			Kernel:      opts.kernel,
		}
		out, err := sim.RunWith(cfg, pool.Get(slot))
		if err != nil {
			return 0, err
		}
		return out.TotalInfected, nil
	})
	if err != nil {
		return nil, err
	}
	sum, err := stats.SummarizeInts(finals)
	if err != nil {
		return nil, err
	}

	rcs := epidemic.RCS{Beta: epidemic.BetaFromScanRate(scanRate), V: 360000, I0: 10}
	horizonSec := horizon.Seconds()

	// Countermeasure comparison: the two-factor ODE with patching rate γ
	// against the stochastic engine running the SAME patching process.
	const gamma = 2e-4 // patch rate per infected host (1/s); ~83 min mean
	tf := epidemic.TwoFactor{
		Beta0: epidemic.BetaFromScanRate(scanRate),
		Gamma: gamma,
		V:     360000, I0: 10,
	}
	tfTraj, err := tf.Integrate(horizonSec, 1, 1)
	if err != nil {
		return nil, err
	}
	tfFinal := tfTraj.States[len(tfTraj.States)-1][0]

	patchedFinals, err := parallel.MapSlot(runs, opts.Workers, func(r, slot int) (int, error) {
		out, err := sim.RunWith(sim.Config{
			V:           360000,
			I0:          10,
			ScanRate:    scanRate,
			PatchRate:   gamma,
			Horizon:     horizon,
			MaxInfected: 20000,
			Seed:        opts.Seed ^ 0x9a7c,
			Stream:      uint64(r),
			Kernel:      opts.kernel,
		}, pool.Get(slot))
		if err != nil {
			return 0, err
		}
		// Active infected at the horizon is the ODE's I(t).
		return out.TotalInfected - out.TotalRemoved, nil
	})
	if err != nil {
		return nil, err
	}
	patchedSum, err := stats.SummarizeInts(patchedFinals)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:    "ablation-deterministic",
		Title: "A2: deterministic epidemic models vs stochastic early phase",
		Series: []Series{
			{Label: "stochastic finals (one point per run)",
				X: irange(len(finals) - 1), Y: intsToFloats(finals)},
			{Label: "stochastic-with-patching active counts (one point per run)",
				X: irange(len(patchedFinals) - 1), Y: intsToFloats(patchedFinals)},
		},
		Notes: []string{
			fmt.Sprintf("stochastic I(%v): mean %.1f, std %.1f, min %.0f, max %.0f over %d runs",
				horizon, sum.Mean, sum.Std, sum.Min, sum.Max, runs),
			fmt.Sprintf("RCS analytic I(%v) = %.1f — a single number; no variability",
				horizon, rcs.Analytic(horizonSec)),
			fmt.Sprintf("two-factor (γ=%.0e) I(%v) = %.1f; stochastic twin with the same "+
				"patching process: mean %.1f, std %.1f (extinct in some runs: min %.0f)",
				gamma, horizon, tfFinal, patchedSum.Mean, patchedSum.Std, patchedSum.Min),
			"the paper's argument: deterministic models capture only the mean and miss " +
				"the early-phase variance and extinction the branching process (and reality) exhibit",
		},
	}
	return res, nil
}

// runAblationPreference exercises the Section VI future-work extension
// (A3): a subnet-preference worm attacking a population clustered in one
// /8 spreads under an M that would extinguish a uniform scanner, because
// preference scanning multiplies the effective vulnerability density.
func runAblationPreference(opts Options) (*Result, error) {
	opts = opts.normalize()
	runs := 20
	if opts.Quick {
		runs = 5
	}
	pfx, err := addr.ParsePrefix("10.0.0.0/8")
	if err != nil {
		return nil, err
	}
	pref, err := addr.NewSubnetPreference(0.5, 0.375) // Code Red II profile
	if err != nil {
		return nil, err
	}
	const (
		v = 5000
		m = 3000
	)
	scanners := []struct {
		label string
		s     addr.Scanner
	}{
		{"uniform scanning", addr.Uniform{}},
		{"subnet-preference scanning (0.5 /8, 0.375 /16)", pref},
	}
	res := &Result{
		ID:    "ablation-preference",
		Title: "A3: preference-scanning worm vs uniform under the same M-limit",
	}
	pool := parallel.NewScratchPool(parallel.ClampWorkers(opts.Workers, runs), sim.NewScratch)
	for _, sc := range scanners {
		totals, err := parallel.MapSlot(runs, opts.Workers, func(r, slot int) (int, error) {
			d, err := defense.NewMLimit(m, 365*24*time.Hour)
			if err != nil {
				return 0, err
			}
			cfg := sim.Config{
				V:             v,
				I0:            5,
				ScanRate:      20,
				Scanner:       sc.s,
				Defense:       d,
				ClusterPrefix: &pfx,
				MaxInfected:   v,
				Seed:          opts.Seed,
				Stream:        uint64(r),
				Kernel:        opts.kernel,
			}
			out, err := sim.RunWith(cfg, pool.Get(slot))
			if err != nil {
				return 0, err
			}
			return out.TotalInfected, nil
		})
		if err != nil {
			return nil, err
		}
		sum, err := stats.SummarizeInts(totals)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, Series{
			Label: sc.label + " — total infected per run",
			X:     irange(len(totals) - 1),
			Y:     intsToFloats(totals),
		})
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: mean total infected %.1f over %d runs", sc.label, sum.Mean, runs))
	}
	// Effective reproduction numbers explain the gap. Every vulnerable
	// host sits in the scanner's /8, so the /8 and /16 weights both land
	// there: p_effective = 0.875·V/2^24 + 0.125·V/2^32.
	uniform := core.WormModel{Name: "uniform", V: v, SpaceSize: core.IPv4SpaceSize, M: m, I0: 5}
	mix := core.ScanMixture{Regions: []core.ScanRegion{
		{Name: "own /8", Weight: 0.875, SpaceSize: 1 << 24, Vulnerable: v},
		{Name: "uniform", Weight: 0.125, SpaceSize: core.IPv4SpaceSize, Vulnerable: v},
	}}
	preference, err := core.PreferenceWormModel("preference", mix, m, 5)
	if err != nil {
		return nil, err
	}
	threshold, err := mix.GeneralizedThreshold()
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("effective λ: uniform %.4f (dies immediately), preference ≈%.3f "+
			"(spreads); containment of preference worms needs M < 1/p_effective = %.0f, "+
			"the paper's proposed future-work extension", uniform.Lambda(), preference.Lambda(), threshold))
	return res, nil
}

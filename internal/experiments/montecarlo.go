package experiments

import (
	"fmt"
	"math"

	"wormcontain/internal/core"
	"wormcontain/internal/sim"
	"wormcontain/internal/stats"
)

func init() {
	register("fig7", runFig7)
	register("fig8", runFig8)
	register("fig11", runFig11)
	register("fig12", runFig12)
}

// mcFigure runs the paper's 1000-replication Monte-Carlo experiment for
// one scenario and compares the empirical distribution of total
// infections with the Borel–Tanner prediction — the shared machinery of
// Figs. 7, 8, 11 and 12.
func mcFigure(id, title string, w core.WormModel, kMax int, cdf bool, opts Options) (*Result, error) {
	opts = opts.normalize()
	cfg := sim.FastConfig{
		V:         w.V,
		SpaceSize: w.SpaceSize,
		M:         w.M,
		I0:        w.I0,
		Seed:      opts.Seed,
	}
	mc, err := sim.RunFastMonteCarloWorkers(cfg, opts.Runs, opts.Workers)
	if err != nil {
		return nil, err
	}
	bt, err := w.TotalInfections()
	if err != nil {
		return nil, err
	}

	var simY, theoryY []float64
	if cdf {
		simY = mc.CumFreq(kMax)
		theoryY = bt.CDFSeries(kMax)
	} else {
		simY = mc.RelFreq(kMax)
		theoryY = bt.PMFSeries(kMax)
	}
	res := &Result{
		ID:    id,
		Title: title,
		Series: []Series{
			{Label: "simulation (relative frequency)", X: irange(kMax), Y: simY},
			{Label: "Borel-Tanner", X: irange(kMax), Y: theoryY},
		},
	}

	summary, err := mc.Summary()
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"%d runs: mean I = %.1f (theory %.1f), std = %.1f (theory %.1f)",
		opts.Runs, summary.Mean, bt.Mean(), summary.Std, math.Sqrt(bt.Var())))

	// Kolmogorov–Smirnov distance of the CDFs quantifies the Fig. 7/8
	// "simulation results match closely with the theoretical results".
	ks := stats.KolmogorovSmirnov(mc.CumFreq(kMax), bt.CDFSeries(kMax))
	res.Notes = append(res.Notes, fmt.Sprintf(
		"KS(sim, Borel-Tanner) = %.4f (99%% critical at n=%d: %.4f)",
		ks, opts.Runs, stats.KSCritical99(opts.Runs)))
	return res, nil
}

// runFig7 reproduces Fig. 7: Code Red, M = 10000, I0 = 10, relative
// frequency of I over 1000 runs against the Borel–Tanner PMF.
func runFig7(opts Options) (*Result, error) {
	res, err := mcFigure("fig7",
		"Code Red M=10000: simulated frequency vs Borel-Tanner PMF (Fig. 7)",
		core.CodeRed(10000, 10), 400, false, opts)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runFig8 reproduces Fig. 8: the cumulative version, including the
// paper's headline "with high probability (0.95) the total number of
// infected hosts is held below 150".
func runFig8(opts Options) (*Result, error) {
	res, err := mcFigure("fig8",
		"Code Red M=10000: simulated cumulative frequency vs Borel-Tanner CDF (Fig. 8)",
		core.CodeRed(10000, 10), 400, true, opts)
	if err != nil {
		return nil, err
	}
	// P{I <= 150} from the sim series.
	empirical := res.Series[0].Y[150]
	theory := res.Series[1].Y[150]
	res.Notes = append(res.Notes, fmt.Sprintf(
		"P{I<=150}: paper ≈0.95, simulated %.4f, Borel-Tanner %.4f", empirical, theory))
	return res, nil
}

// runFig11 reproduces Fig. 11: SQL Slammer, M = 10000, I0 = 10, PMF
// comparison ("the worm containment contains the infection to below 20
// hosts ... with very high probability").
func runFig11(opts Options) (*Result, error) {
	return mcFigure("fig11",
		"SQL Slammer M=10000: simulated frequency vs Borel-Tanner PMF (Fig. 11)",
		core.SQLSlammer(10000, 10), 60, false, opts)
}

// runFig12 reproduces Fig. 12: the Slammer CDF comparison.
func runFig12(opts Options) (*Result, error) {
	res, err := mcFigure("fig12",
		"SQL Slammer M=10000: simulated cumulative frequency vs Borel-Tanner CDF (Fig. 12)",
		core.SQLSlammer(10000, 10), 60, true, opts)
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"P{I<=20}: simulated %.4f, Borel-Tanner %.4f (paper: containment below 20 w.h.p.)",
		res.Series[0].Y[20], res.Series[1].Y[20]))
	return res, nil
}

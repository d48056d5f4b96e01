package experiments

import (
	"fmt"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/defense"
	"wormcontain/internal/sim"
	"wormcontain/internal/stats"
)

func init() {
	register("fig2", runFig2)
	register("fig9", runFig9)
	register("fig10", runFig10)
}

// codeRedDES builds the paper's Section V discrete-event configuration:
// V = 360 000 hosts, I0 = 10, uniform scanning at 6 scans/second (the
// rate the paper uses "for the purpose of illustrating worm propagation
// and containment with respect to time"), M = 10 000.
func codeRedDES(seed, stream uint64, recordPaths bool) (sim.Config, error) {
	d, err := defense.NewMLimit(10000, 365*24*time.Hour)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		V:           360000,
		I0:          10,
		ScanRate:    6,
		Defense:     d,
		Seed:        seed,
		Stream:      stream,
		RecordPaths: recordPaths,
	}, nil
}

// samplePathRuns executes n Code Red runs and returns their results.
func samplePathRuns(opts Options, n int) ([]*sim.Result, error) {
	opts = opts.normalize()
	out := make([]*sim.Result, 0, n)
	scratch := sim.NewScratch() // serial loop: one arena serves every run
	for i := 0; i < n; i++ {
		cfg, err := codeRedDES(opts.Seed, uint64(i), true)
		if err != nil {
			return nil, err
		}
		cfg.Kernel = opts.kernel
		res, err := sim.RunWith(cfg, scratch)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// pathSeries converts a run's three sample paths into figure series on a
// minute-resolution grid, the axes of Figs. 9–10.
func pathSeries(res *sim.Result) []Series {
	const gridPoints = 120
	horizon := res.EndTime
	toSeries := func(label string, ts *stats.TimeSeries) Series {
		times, values := ts.Sample(horizon, gridPoints)
		xs := make([]float64, len(times))
		for i, at := range times {
			xs[i] = at.Minutes()
		}
		return Series{Label: label, X: xs, Y: values}
	}
	return []Series{
		toSeries("accumulated infected hosts", res.InfectedSeries),
		toSeries("accumulated removed hosts", res.RemovedSeries),
		toSeries("active infected hosts", res.ActiveSeries),
	}
}

// runFig2 reproduces Fig. 2's generation-wise view of early Code Red
// propagation: how many hosts each generation infects, compared with the
// branching-process expectation E[I_n] = I0·λ^n.
func runFig2(opts Options) (*Result, error) {
	opts = opts.normalize()
	cfg, err := codeRedDES(opts.Seed, 0, false)
	if err != nil {
		return nil, err
	}
	cfg.Kernel = opts.kernel
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	w := core.CodeRed(10000, 10)
	lambda := w.Lambda()
	expected := make([]float64, len(res.Generations))
	e := float64(w.I0)
	for g := range expected {
		expected[g] = e
		e *= lambda
	}
	out := &Result{
		ID:    "fig2",
		Title: "growth of infected hosts by generation, Code Red (Fig. 2)",
		Series: []Series{
			{Label: "simulated infections per generation",
				X: irange(len(res.Generations) - 1), Y: intsToFloats(res.Generations)},
			{Label: "branching-process mean I0·λ^n",
				X: irange(len(expected) - 1), Y: expected},
		},
		Notes: []string{
			fmt.Sprintf("run infected %d hosts over %d generations (λ=%.3f)",
				res.TotalInfected, len(res.Generations), lambda),
		},
	}
	return out, nil
}

// runFig9 reproduces Fig. 9: a large-outbreak sample path of contained
// Code Red propagation (the paper's example reaches ≈300 total infected,
// with the active count held below ≈30 at all times).
func runFig9(opts Options) (*Result, error) {
	opts = opts.normalize()
	n := 20
	if opts.Quick {
		n = 5
	}
	runs, err := samplePathRuns(opts, n)
	if err != nil {
		return nil, err
	}
	// Pick the largest outbreak as the Fig. 9-style path.
	best := runs[0]
	for _, r := range runs[1:] {
		if r.TotalInfected > best.TotalInfected {
			best = r
		}
	}
	res := &Result{
		ID:     "fig9",
		Title:  "sample path of contained Code Red propagation, large outbreak (Fig. 9)",
		Series: pathSeries(best),
		Notes: []string{
			fmt.Sprintf("selected the largest of %d runs: total infected %d (paper's example ≈300)",
				n, best.TotalInfected),
			fmt.Sprintf("peak active infected %d (paper: held below ≈30)", best.PeakActive),
			fmt.Sprintf("outbreak extinct at %.0f minutes; removals caught up with infections: %v",
				best.EndTime.Minutes(), best.TotalRemoved == best.TotalInfected),
		},
	}
	return res, nil
}

// runFig10 reproduces Fig. 10: a typical (median-sized) sample path —
// the paper's second scenario with 55 total infected hosts.
func runFig10(opts Options) (*Result, error) {
	opts = opts.normalize()
	n := 20
	if opts.Quick {
		n = 5
	}
	runs, err := samplePathRuns(opts, n)
	if err != nil {
		return nil, err
	}
	// Pick the run closest to the theoretical median outbreak size.
	w := core.CodeRed(10000, 10)
	bt, err := w.TotalInfections()
	if err != nil {
		return nil, err
	}
	median := bt.Quantile(0.5)
	best := runs[0]
	for _, r := range runs[1:] {
		if abs(r.TotalInfected-median) < abs(best.TotalInfected-median) {
			best = r
		}
	}
	res := &Result{
		ID:     "fig10",
		Title:  "sample path of contained Code Red propagation, typical outbreak (Fig. 10)",
		Series: pathSeries(best),
		Notes: []string{
			fmt.Sprintf("selected the run nearest the theoretical median %d of %d runs: total infected %d (paper's example: 55)",
				median, n, best.TotalInfected),
			fmt.Sprintf("worm ceased spreading after all infected hosts were removed: %v",
				best.Extinct && best.TotalRemoved == best.TotalInfected),
		},
	}
	return res, nil
}

// abs is integer absolute value.
func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

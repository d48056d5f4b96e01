// Command wormcalc runs the model's closed-form calculators and the
// trace tooling around them, one subcommand each:
//
//	wormcalc boreltanner — the total-infection law of Eq. (4)
//	wormcalc extinction  — Proposition 1's threshold and the P_n curve
//	wormcalc design      — size M for a target, audit a trace, plan a cycle
//	wormcalc tracegen    — generate, write, read and analyze traces
//
// Examples:
//
//	wormcalc boreltanner -worm codered -m 10000 -i0 10 -kmax 300
//	wormcalc extinction -worm codered -m 5000,7500,10000 -gens 20
//	wormcalc design -worm codered -i0 10 -max-infected 100 -confidence 0.99
//	wormcalc tracegen -in trace.txt -m 5000 -top 6
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/dist"
	"wormcontain/internal/trace"
)

// commands maps each subcommand to its body. A body parses its own
// flags and writes its report to w.
var commands = map[string]func(args []string, w io.Writer) error{
	"boreltanner": runBorelTanner,
	"extinction":  runExtinction,
	"design":      runDesign,
	"tracegen":    runTracegen,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wormcalc:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: wormcalc <boreltanner|extinction|design|tracegen> [flags]")
	}
	cmd, ok := commands[args[0]]
	if !ok {
		return fmt.Errorf("unknown subcommand %q (want boreltanner, extinction, design or tracegen)", args[0])
	}
	if err := cmd(args[1:], w); err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	return nil
}

// wormFlags registers -worm, -v and -i0 on fs. The function it returns
// resolves them once fs is parsed: a custom population of -v hosts on
// the IPv4 space, or else the named preset.
func wormFlags(fs *flag.FlagSet, i0 int, i0Usage string) func() (core.WormModel, error) {
	var (
		worm = fs.String("worm", "codered", "preset: codered, slammer, codered2, nimda, blaster, witty, sasser (overridden by -v)")
		v    = fs.Int("v", 0, "vulnerable population size (0 = use preset)")
		n    = fs.Int("i0", i0, i0Usage)
	)
	return func() (core.WormModel, error) {
		if *v != 0 { // a negative -v reaches NewWormModel's V >= 1 check
			return core.NewWormModel("custom", *v, core.IPv4SpaceSize, 0, *n)
		}
		w, ok := core.PresetByName(*worm, 0, *n)
		if !ok {
			return core.WormModel{}, fmt.Errorf("unknown worm preset %q", *worm)
		}
		return w, nil
	}
}

// readTrace parses the trace file at path.
func readTrace(path string) ([]trace.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Parse(f)
}

// runBorelTanner prints the total-infection distribution of Eq. (4) for
// a contained worm: the PMF/CDF tables behind Figs. 4–5 and 11–12, the
// moments, and design quantiles. -lambda, when set, gives the offspring
// mean directly.
func runBorelTanner(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("boreltanner", flag.ContinueOnError)
	var (
		worm   = fs.String("worm", "codered", "preset: codered, slammer, codered2, nimda, blaster, witty, sasser")
		m      = fs.Int("m", 10000, "scan limit M")
		i0     = fs.Int("i0", 10, "initially infected hosts")
		lambda = fs.Float64("lambda", 0, "offspring mean λ directly (overrides -worm/-m)")
		kMax   = fs.Int("kmax", 0, "print PMF/CDF up to this k (0 = q999)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *kMax < 0 {
		return fmt.Errorf("-kmax %d: must be >= 0 (0 = q999)", *kMax)
	}
	if *kMax != 0 && *kMax < *i0 {
		// The table starts at k = I0: it would print a header and no rows.
		return fmt.Errorf("-kmax %d is below -i0 %d: the table starts at k = I0", *kMax, *i0)
	}
	lambdaSet := false
	fs.Visit(func(f *flag.Flag) { lambdaSet = lambdaSet || f.Name == "lambda" })

	var bt dist.BorelTanner
	if lambdaSet {
		b, err := dist.NewBorelTanner(*lambda, *i0)
		if err != nil {
			return err
		}
		bt = b
	} else {
		wm, ok := core.PresetByName(*worm, *m, *i0)
		if !ok {
			return fmt.Errorf("unknown worm preset %q", *worm)
		}
		b, err := wm.TotalInfections()
		if err != nil {
			return err
		}
		bt = b
		fmt.Fprintf(w, "scenario %s: V=%d M=%d\n", wm.Name, wm.V, wm.M)
	}

	fmt.Fprintf(w, "λ=%.6f I0=%d\n", bt.Lambda, bt.I0)
	fmt.Fprintf(w, "E[I]=%.2f Var[I]=%.1f (std %.1f); paper formula I0/(1-λ)^3 = %.1f\n",
		bt.Mean(), bt.Var(), math.Sqrt(bt.Var()), bt.VarPaper())
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		fmt.Fprintf(w, "q%.3g = %d\n", 100*q, bt.Quantile(q))
	}

	limit := *kMax
	if limit == 0 {
		limit = bt.Quantile(0.999)
	}
	fmt.Fprintln(w, "      k          P{I=k}         P{I<=k}")
	pmf := bt.PMFSeries(limit)
	cdf := bt.CDFSeries(limit)
	for k := bt.I0; k <= limit; k++ {
		fmt.Fprintf(w, "%7d %15.9f %15.9f\n", k, pmf[k], cdf[k])
	}
	return nil
}

// runExtinction prints extinction-probability analyses for a worm
// scenario: Proposition 1's threshold 1/p, the eventual extinction
// probability π, and the per-generation curve P_n of Fig. 3, one column
// per scan limit in -m.
func runExtinction(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("extinction", flag.ContinueOnError)
	model := wormFlags(fs, 1, "initially infected hosts")
	var (
		mList = fs.String("m", "5000,7500,10000", "comma-separated scan limits to sweep")
		gens  = fs.Int("gens", 20, "generations to compute")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	base, err := model()
	if err != nil {
		return err
	}
	if base.I0 < 1 {
		return fmt.Errorf("-i0 %d: must be >= 1", base.I0)
	}
	if *gens < 0 {
		return fmt.Errorf("-gens %d: must be >= 0", *gens)
	}
	ms, err := parseInts(*mList)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "scenario %s: V=%d p=%.6g threshold 1/p=%.0f I0=%d\n",
		base.Name, base.V, base.Density(), base.ExtinctionThreshold(), base.I0)

	curves := make([][]float64, 0, len(ms))
	for _, m := range ms {
		wm := base
		wm.M = m
		probs, err := wm.ExtinctionByGeneration(*gens)
		if err != nil {
			return err
		}
		curves = append(curves, probs)
		fmt.Fprintf(w, "M=%d: λ=%.4f guaranteed=%v π=%.6f\n",
			m, wm.Lambda(), wm.GuaranteedExtinction(), wm.ExtinctionProbability())
	}

	fmt.Fprintf(w, "%10s", "generation")
	for _, m := range ms {
		fmt.Fprintf(w, " %12s", "M="+strconv.Itoa(m))
	}
	fmt.Fprintln(w)
	for n := 0; n <= *gens; n++ {
		fmt.Fprintf(w, "%10d", n)
		for _, c := range curves {
			fmt.Fprintf(w, " %12.6f", c[n])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad integer %q in list", p)
		}
		out = append(out, n)
	}
	return out, nil
}

// runDesign is the operator-facing planning tool for the automated
// containment system: given a worm scenario and a containment target it
// derives the scan limit M (Section IV step 1), audits a clean traffic
// trace for false alarms, and recommends a containment cycle from the
// observed activity (Section IV steps 2–4).
func runDesign(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("design", flag.ContinueOnError)
	model := wormFlags(fs, 10, "initially infected hosts to design against")
	var (
		maxTotal   = fs.Int("max-infected", 100, "acceptable ceiling on total infections")
		confidence = fs.Float64("confidence", 0.99, "required probability of staying under the ceiling")
		tracePath  = fs.String("trace", "", "clean traffic trace to audit (LBL-CONN-7 style); empty = synthetic")
		checkFrac  = fs.Float64("check-fraction", 0.9, "early-check fraction f of the limit")
		tolerance  = fs.Float64("tolerance", 0.005, "tolerated fraction of clean hosts crossing f·M per cycle")
		seed       = fs.Uint64("seed", 1, "seed for the synthetic trace")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	base, err := model()
	if err != nil {
		return err
	}

	// Every step is computed before the report's first line, so a bad
	// value fails with nothing printed.

	// Step 1: size M for the containment target.
	target := core.ContainmentTarget{MaxTotalInfected: *maxTotal, Confidence: *confidence}
	m, err := core.DesignM(base, target)
	if err != nil {
		return err
	}
	designed := base
	designed.M = m
	bt, err := designed.TotalInfections()
	if err != nil {
		return err
	}
	// Step 2: audit clean traffic against the designed M.
	var records []trace.Record
	source := "synthetic LBL-CONN-7 stand-in"
	if *tracePath != "" {
		records, err = readTrace(*tracePath)
		source = *tracePath
	} else {
		records, err = trace.Generate(trace.DefaultGeneratorConfig(*seed))
	}
	if err != nil {
		return err
	}
	analysis, err := trace.Analyze(records)
	if err != nil {
		return err
	}
	// Steps 3–4: containment cycle from the observed activity.
	planner := core.CyclePlanner{M: m, CheckFraction: *checkFrac, Tolerance: *tolerance}
	cycle, err := planner.Recommend(analysis.RatesPerHour(), 24*time.Hour, 365*24*time.Hour)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "scenario %s: V=%d, p=%.4g, Proposition-1 threshold 1/p = %.0f\n",
		base.Name, base.V, base.Density(), base.ExtinctionThreshold())
	fmt.Fprintf(w, "\nstep 1 — scan limit:\n")
	fmt.Fprintf(w, "  designed M = %d for P{I <= %d} >= %.3f (achieved %.4f)\n",
		m, *maxTotal, *confidence, bt.CDF(*maxTotal))
	fmt.Fprintf(w, "  outbreak law at this M: E[I]=%.1f std=%.1f q95=%d q99=%d\n",
		bt.Mean(), math.Sqrt(bt.Var()), bt.Quantile(0.95), bt.Quantile(0.99))
	fmt.Fprintf(w, "\nstep 2 — clean-traffic audit (%s):\n", source)
	fmt.Fprintf(w, "  hosts: %d over %.1f days; busiest host %d distinct destinations\n",
		analysis.Hosts(), analysis.Span.Hours()/24, analysis.Top(1)[0].Distinct)
	fmt.Fprintf(w, "  hosts that would hit M=%d in the trace span: %d\n", m, analysis.FalseAlarms(m))
	fmt.Fprintf(w, "  hosts that would cross the f·M=%0.f check threshold: %d\n",
		*checkFrac*float64(m), analysis.FalseAlarms(int(*checkFrac*float64(m))))
	fmt.Fprintf(w, "\nsteps 3-4 — containment cycle:\n")
	fmt.Fprintf(w, "  recommended cycle: %.0f days (f=%.2f, tolerance %.2g)\n",
		cycle.Hours()/24, *checkFrac, *tolerance)
	fmt.Fprintf(w, "  adaptation rule: <50%% peak usage -> grow 25%%; >90%% -> shrink 25%%\n")
	return nil
}

// runTracegen generates, writes, reads and analyzes LBL-CONN-7 style
// wide-area connection traces: the Fig. 6 substrate. Without -in it
// synthesizes a 30-day trace calibrated to the paper's statistics; with
// -in it analyzes an existing trace file (e.g. the real LBL-CONN-7
// converted to the documented 8-column format).
func runTracegen(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		in    = fs.String("in", "", "analyze this trace file instead of generating")
		out   = fs.String("out", "", "write the generated trace to this file")
		seed  = fs.Uint64("seed", 1, "generator seed")
		hosts = fs.Int("hosts", 1645, "number of local hosts to generate")
		top   = fs.Int("top", 6, "print growth curves for the top-N hosts")
		m     = fs.Int("m", 5000, "containment limit for the false-alarm audit")
		quick = fs.Bool("quick", false, "fewer repeat records (distinct counts unchanged)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *top < 0 {
		return fmt.Errorf("-top %d: must be >= 0", *top)
	}
	if *m < 1 {
		return fmt.Errorf("-m %d: must be >= 1", *m)
	}

	var records []trace.Record
	var err error
	if *in != "" {
		if records, err = readTrace(*in); err != nil {
			return err
		}
	} else {
		cfg := trace.DefaultGeneratorConfig(*seed)
		cfg.Hosts = *hosts
		if *quick {
			cfg.RepeatFactor = 0.5
		}
		if records, err = trace.Generate(cfg); err != nil {
			return err
		}
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			if err := trace.Write(f, records); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %d records to %s\n", len(records), *out)
		}
	}

	a, err := trace.Analyze(records)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "records: %d  hosts: %d  span: %.1f days\n",
		len(records), a.Hosts(), a.Span.Hours()/24)
	fmt.Fprintf(w, "hosts below 100 distinct destinations: %.2f%%\n", 100*a.FractionBelow(100))
	fmt.Fprintf(w, "hosts above 1000 distinct destinations: %d\n", a.CountAbove(1000))
	fmt.Fprintf(w, "false alarms at M=%d: %d\n", *m, a.FalseAlarms(*m))

	fmt.Fprintf(w, "top %d hosts by distinct destinations:\n", *top)
	for _, th := range a.Top(*top) {
		fmt.Fprintf(w, "  host %5d: %5d distinct\n", th.Host, th.Distinct)
	}

	fmt.Fprintln(w, "growth curves (hours -> distinct), 10-point grid:")
	for _, th := range a.Top(*top) {
		times, counts, err := a.GrowthCurve(th.Host, 9)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  host %5d:", th.Host)
		for i := range times {
			fmt.Fprintf(w, " %.0fh:%.0f", times[i].Hours(), counts[i])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Command wormsim runs discrete-event worm propagation simulations and
// prints their outcome: total/removed/peak counts, the generation
// breakdown, and optionally the sample path (the curves of Figs. 9–10).
//
// Usage:
//
//	wormsim -worm codered -m 10000 -rate 6 -seed 1 -path
//	wormsim -v 120000 -i0 10 -m 10000 -rate 4000 -defense throttle
//	wormsim -v 2000 -m 25 -rate 20 -runs 500 -workers 8
//	wormsim -v 600 -topology scalefree -edge-rate -rate 0.3 -patch-rate 1 -defense none -horizon 2m
//
// With -topology the worm spreads over a graph instead of scanning the
// address space: scans pick uniform neighbors from a deterministic
// generated topology (tree, scalefree, smallworld; seeded by -topo-seed)
// or an explicit adjacency file. -edge-rate scales each host's scan rate
// by its degree, making -rate the per-edge contact rate β, whose
// epidemic threshold sits at β/δ·λ₁ = 1 for the printed λ₁.
//
// With -runs N > 1 wormsim becomes a Monte-Carlo sweep: replication r
// runs with RNG stream (-stream + r) and the replications fan out across
// -workers goroutines (default: all CPUs). The sweep is deterministic —
// results are aggregated in replication order, so any worker count
// yields identical output for a fixed seed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/defense"
	"wormcontain/internal/des"
	"wormcontain/internal/parallel"
	"wormcontain/internal/rng"
	"wormcontain/internal/sim"
	"wormcontain/internal/simstate"
	"wormcontain/internal/stats"
	"wormcontain/internal/telemetry"
	"wormcontain/internal/topo"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wormsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("wormsim", flag.ContinueOnError)
	var (
		worm      = fs.String("worm", "", "preset name (codered, slammer, codered2, nimda, blaster, witty, sasser) setting V (overridden by -v)")
		v         = fs.Int("v", 360000, "vulnerable population size")
		i0        = fs.Int("i0", 10, "initially infected hosts")
		m         = fs.Int("m", 10000, "containment limit M (distinct destinations per cycle)")
		rate      = fs.Float64("rate", 6, "scan rate per infected host (scans/second)")
		defName   = fs.String("defense", "mlimit", "defense: mlimit, throttle, quarantine, none")
		horizon   = fs.Duration("horizon", 0, "stop at this virtual time (0 = run to extinction)")
		maxInf    = fs.Int("max-infected", 0, "stop once this many hosts are infected (0 = off)")
		dutyOn    = fs.Duration("duty-on", 0, "stealth worm active phase (0 = always on)")
		dutyOff   = fs.Duration("duty-off", 0, "stealth worm dormant phase")
		patchRate = fs.Float64("patch-rate", 0, "per-infected-host patch rate (events/s)")
		immunize  = fs.Float64("immunize-rate", 0, "per-susceptible immunization rate (events/s)")
		topology  = fs.String("topology", "uniform", "propagation topology: uniform, tree, scalefree, smallworld, file")
		topoSeed  = fs.Uint64("topo-seed", 0, "graph generation seed (0 = use -seed)")
		topoDeg   = fs.Int("topo-degree", 3, "tree branching / scale-free attachments; small-world uses 2x this as ring degree")
		topoRew   = fs.Float64("topo-rewire", 0.1, "small-world rewiring probability")
		topoFile  = fs.String("topo-file", "", "adjacency file for -topology file (wormtopo v1 format)")
		edgeRate  = fs.Bool("edge-rate", false, "scale each host's scan rate by its degree (per-edge rate beta = -rate)")
		kernel    = fs.String("kernel", "heap", "event kernel backend: heap (reference) or wheel (hierarchical timing wheel)")
		seed      = fs.Uint64("seed", 1, "random seed")
		stream    = fs.Uint64("stream", 0, "random stream (first replication index)")
		runs      = fs.Int("runs", 1, "Monte-Carlo replications (replication r uses stream + r)")
		workers   = fs.Int("workers", runtime.GOMAXPROCS(0), "replication worker pool size (results are identical for any value)")
		path      = fs.Bool("path", false, "print the sample path on a 60-point grid")
		ckptDir   = fs.String("checkpoint-dir", "", "write periodic durable checkpoints to this directory (single run only)")
		ckptInt   = fs.Duration("checkpoint-interval", 10*time.Second, "virtual-time spacing of periodic checkpoints (with -checkpoint-dir)")
		resume    = fs.Bool("resume", false, "resume from the newest valid checkpoint in -checkpoint-dir")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	kind, err := des.ParseKind(*kernel)
	if err != nil {
		return err
	}
	if *worm != "" {
		w, ok := core.PresetByName(*worm, *m, *i0)
		if !ok {
			return fmt.Errorf("unknown worm preset %q", *worm)
		}
		vSet := false
		fs.Visit(func(f *flag.Flag) { vSet = vSet || f.Name == "v" })
		if !vSet {
			*v = w.V
		}
	}
	if *runs < 1 {
		return fmt.Errorf("-runs %d: need at least one replication", *runs)
	}
	if *workers < 1 {
		return fmt.Errorf("-workers %d: need at least one worker", *workers)
	}
	if *runs > 1 && *path {
		return fmt.Errorf("-path prints a single sample path; drop it or use -runs 1")
	}
	// Checkpoint flags fail fast, before any simulation work starts.
	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume needs -checkpoint-dir to load the checkpoint from")
	}
	if *ckptDir != "" {
		if *ckptInt <= 0 {
			return fmt.Errorf("-checkpoint-interval %v: must be positive", *ckptInt)
		}
		if *runs > 1 {
			return fmt.Errorf("-checkpoint-dir checkpoints a single run; use -runs 1")
		}
	}

	// Graph topologies are built once and shared read-only by every
	// replication; -v follows the graph when the graph fixes its own
	// vertex count (-topology file).
	gseed := *topoSeed
	if gseed == 0 {
		gseed = *seed
	}
	var graph *topo.Graph
	switch *topology {
	case "uniform":
		if *topoFile != "" {
			return fmt.Errorf("-topo-file requires -topology file")
		}
	case "tree", "scalefree", "smallworld":
		var gen topo.Generator
		switch *topology {
		case "tree":
			gen = topo.Tree{N: *v, Branching: *topoDeg}
		case "scalefree":
			gen = topo.ScaleFree{N: *v, Attach: *topoDeg}
		case "smallworld":
			gen = topo.SmallWorld{N: *v, K: 2 * *topoDeg, Rewire: *topoRew}
		}
		var err error
		if graph, err = gen.Generate(gseed); err != nil {
			return err
		}
	case "file":
		if *topoFile == "" {
			return fmt.Errorf("-topology file needs -topo-file")
		}
		data, err := os.ReadFile(*topoFile)
		if err != nil {
			return err
		}
		if graph, err = topo.ParseAdjacency(data); err != nil {
			return err
		}
		*v = graph.N()
	default:
		return fmt.Errorf("unknown topology %q (uniform, tree, scalefree, smallworld, file)", *topology)
	}
	// Defenses are stateful (scan budgets, throttle queues, quarantine
	// timers), so every replication builds its own instance.
	mkDefense := func(stream uint64) (defense.Defense, error) {
		switch *defName {
		case "mlimit":
			return defense.NewMLimit(*m, 365*24*time.Hour)
		case "throttle":
			return defense.NewWilliamsonThrottle(), nil
		case "quarantine":
			return defense.NewQuarantine(0.001, time.Minute, rng.NewPCG64(*seed^0xdef, stream))
		case "none":
			if *horizon == 0 && *maxInf == 0 {
				return nil, fmt.Errorf("defense 'none' needs -horizon or -max-infected to terminate")
			}
			return defense.Null{}, nil
		default:
			return nil, fmt.Errorf("unknown defense %q", *defName)
		}
	}
	mkConfig := func(d defense.Defense, stream uint64) sim.Config {
		cfg := sim.Config{
			V:            *v,
			I0:           *i0,
			ScanRate:     *rate,
			Defense:      d,
			Horizon:      *horizon,
			MaxInfected:  *maxInf,
			PatchRate:    *patchRate,
			ImmunizeRate: *immunize,
			Topology:     graph,
			EdgeScanRate: *edgeRate,
			Seed:         *seed,
			Stream:       stream,
			Kernel:       kind,
			RecordPaths:  *path,
		}
		if *dutyOn != 0 || *dutyOff != 0 {
			cfg.DutyCycle = &sim.DutyCycleConfig{On: *dutyOn, Off: *dutyOff}
		}
		return cfg
	}

	// Every flag is checked before the first line is printed: the
	// defense and the configuration of the first replication are built
	// and validated here.
	d, err := mkDefense(*stream)
	if err != nil {
		return err
	}
	cfg := mkConfig(d, *stream)
	if err := cfg.Validate(); err != nil {
		return err
	}

	if graph != nil {
		lambda1, _ := graph.SpectralRadius()
		fmt.Printf("topology: %s  n=%d  edges=%d  mean degree %.2f  max degree %d  lambda1 %.4f\n",
			*topology, graph.N(), graph.EdgeCount(), graph.MeanDegree(), graph.MaxDegree(), lambda1)
		if *edgeRate {
			fmt.Printf("edge-rate: beta=%.4g per edge, beta/delta*lambda1 threshold at rate %.4g\n",
				*rate, 1/lambda1)
		}
	}
	// The population header: selected event kernel and the per-host state
	// footprint (address table plus packed epidemiology bitsets) the -v
	// hosts will occupy.
	fmt.Printf("kernel: %s  population: %d hosts (%.1f MB state)\n",
		kind, *v, float64(sim.PopulationFootprint(*v))/(1<<20))

	if *runs > 1 {
		return runSweep(mkDefense, mkConfig, *runs, *workers, *stream)
	}

	var res *sim.Result
	if *ckptDir != "" {
		res, err = runCheckpointed(cfg, *ckptDir, *ckptInt, *resume)
		if errors.Is(err, sim.ErrStopRequested) {
			// The interruption wrote a final checkpoint; this is a clean
			// exit, not a failure.
			return nil
		}
	} else {
		res, err = sim.Run(cfg)
	}
	if err != nil {
		return err
	}

	fmt.Printf("defense: %s\n", d.Name())
	fmt.Printf("total infected: %d  removed: %d  peak active: %d\n",
		res.TotalInfected, res.TotalRemoved, res.PeakActive)
	fmt.Printf("end: %v  extinct: %v  truncated: %v\n", res.EndTime, res.Extinct, res.Truncated)
	fmt.Printf("scans: %d (delivered %d, delayed %d, dropped %d)\n",
		res.TotalScans, res.Delivered, res.Delayed, res.Dropped)
	if res.Patched > 0 || res.Immunized > 0 {
		fmt.Printf("countermeasures: patched %d, immunized %d\n", res.Patched, res.Immunized)
	}
	fmt.Printf("generations:")
	for g, n := range res.Generations {
		fmt.Printf(" %d:%d", g, n)
	}
	fmt.Println()

	if *path {
		fmt.Println("minutes  infected  removed  active")
		const grid = 60
		for i := 0; i <= grid; i++ {
			at := time.Duration(int64(res.EndTime) * int64(i) / grid)
			fmt.Printf("%8.2f %9.0f %8.0f %7.0f\n",
				at.Minutes(),
				res.InfectedSeries.At(at),
				res.RemovedSeries.At(at),
				res.ActiveSeries.At(at))
		}
	}
	return nil
}

// runCheckpointed executes (or resumes) one simulation with periodic
// durable checkpoints in dirPath. SIGTERM and SIGINT request a
// graceful stop: a final checkpoint is written and the process exits
// cleanly, ready for a later -resume. On a stop request the returned
// error is sim.ErrStopRequested and the partial result is discarded.
func runCheckpointed(cfg sim.Config, dirPath string, interval time.Duration, resume bool) (*sim.Result, error) {
	dir, err := simstate.OpenPath(dirPath)
	if err != nil {
		return nil, err
	}

	var ck *sim.Checkpoint
	if resume {
		payload, gen, err := dir.Load()
		if errors.Is(err, simstate.ErrNoCheckpoint) {
			return nil, fmt.Errorf("-resume: %s holds no valid checkpoint", dirPath)
		}
		if err != nil {
			return nil, err
		}
		if ck, err = sim.DecodeCheckpoint(payload); err != nil {
			return nil, fmt.Errorf("checkpoint generation %d: %w", gen, err)
		}
		// A scenario that differs from the checkpoint's is refused by
		// ResumeCheckpointed, naming the first field that differs. The
		// kernel is not part of it: a cut resumes on either.
		fmt.Printf("resume: generation %d at t=%v (%d infected, %d removed)\n",
			gen, ck.Now, ck.TotalInfected, ck.TotalRemoved)
	}

	// SIGTERM/SIGINT set the stop flag the checkpoint loop polls between
	// events: the run halts at an event boundary after writing a final
	// checkpoint.
	var stop atomic.Bool
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sigc:
			stop.Store(true)
		case <-done:
		}
	}()

	var st sim.CheckpointStats
	opts := sim.CheckpointOptions{Sink: dir, Interval: interval, Stop: stop.Load, Stats: &st}
	res := &sim.Result{}
	if ck != nil {
		err = sim.ResumeCheckpointed(cfg, nil, res, ck, opts)
	} else {
		err = sim.RunCheckpointed(cfg, nil, res, opts)
	}
	if errors.Is(err, sim.ErrStopRequested) {
		fmt.Printf("interrupted at t=%v: generation %d saved (%d bytes); rerun with -resume to continue\n",
			st.LastAt, st.LastGen, st.Bytes)
		printCheckpointTelemetry(&st, res.EndTime)
		return nil, err
	}
	if err != nil {
		return nil, err
	}
	fmt.Printf("checkpoints: %d writes, last generation %d at t=%v (%d bytes), max gap %v\n",
		st.Writes, st.LastGen, st.LastAt, st.Bytes, st.MaxGap)
	printCheckpointTelemetry(&st, res.EndTime)
	return res, nil
}

// printCheckpointTelemetry exposes the run's checkpoint counters as
// the wormsim_checkpoint_* series in Prometheus text format — the same
// shape a long-running wormgate scrapes, printed here because a CLI
// run's lifetime is one scrape.
func printCheckpointTelemetry(st *sim.CheckpointStats, end time.Duration) {
	reg := telemetry.NewRegistry()
	reg.CounterFunc("wormsim_checkpoint_writes_total",
		"Checkpoints written during the run.",
		func() float64 { return float64(st.Writes) })
	reg.GaugeFunc("wormsim_checkpoint_bytes",
		"Size of the last checkpoint payload.",
		func() float64 { return float64(st.Bytes) })
	reg.GaugeFunc("wormsim_checkpoint_age_seconds",
		"Virtual time between the last checkpoint and the end of the run.",
		func() float64 { return (end - st.LastAt).Seconds() })
	if err := reg.WritePrometheus(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wormsim: telemetry:", err)
	}
}

// sweepOut is one replication's outcome in a -runs sweep.
type sweepOut struct {
	total, removed, peak int
	extinct              bool
	end                  time.Duration
	name                 string
}

// runSweep fans runs replications across the worker pool, replication r
// on RNG stream base+r, and prints per-replication outcomes plus the
// aggregate statistics. Results stream through the deterministic reducer
// in replication order, so the printed report is identical for every
// -workers value.
func runSweep(mkDefense func(uint64) (defense.Defense, error),
	mkConfig func(defense.Defense, uint64) sim.Config,
	runs, workers int, base uint64) error {

	var (
		totals, peaks, durations stats.Accumulator
		extinct                  int
		name                     string
	)
	fmt.Println("   run    stream   total  removed    peak  extinct       end")
	_, err := parallel.Reduce(runs, workers, 0,
		func(r int) (sweepOut, error) {
			stream := base + uint64(r)
			d, err := mkDefense(stream)
			if err != nil {
				return sweepOut{}, err
			}
			out, err := sim.Run(mkConfig(d, stream))
			if err != nil {
				return sweepOut{}, err
			}
			return sweepOut{
				total:   out.TotalInfected,
				removed: out.TotalRemoved,
				peak:    out.PeakActive,
				extinct: out.Extinct,
				end:     out.EndTime,
				name:    d.Name(),
			}, nil
		},
		func(_ int, r int, o sweepOut) (int, error) {
			fmt.Printf("%6d %9d %7d %8d %7d %8v %9s\n",
				r, base+uint64(r), o.total, o.removed, o.peak, o.extinct,
				o.end.Round(time.Millisecond))
			totals.AddInt(o.total)
			peaks.AddInt(o.peak)
			durations.Add(o.end.Seconds())
			if o.extinct {
				extinct++
			}
			name = o.name
			return 0, nil
		})
	if err != nil {
		return err
	}

	ts, err := totals.Summary()
	if err != nil {
		return err
	}
	ps, err := peaks.Summary()
	if err != nil {
		return err
	}
	ds, err := durations.Summary()
	if err != nil {
		return err
	}
	// The worker count is deliberately absent from the report: the sweep
	// output is part of the determinism contract and must be
	// byte-identical for every -workers value.
	fmt.Printf("defense: %s  replications: %d (streams %d..%d)\n",
		name, runs, base, base+uint64(runs)-1)
	fmt.Printf("total infected: mean %.2f  std %.2f  min %.0f  max %.0f\n",
		ts.Mean, ts.Std, ts.Min, ts.Max)
	fmt.Printf("peak active:    mean %.2f  std %.2f  min %.0f  max %.0f\n",
		ps.Mean, ps.Std, ps.Min, ps.Max)
	fmt.Printf("duration (s):   mean %.2f  std %.2f  min %.2f  max %.2f\n",
		ds.Mean, ds.Std, ds.Min, ds.Max)
	fmt.Printf("extinct: %d/%d (%.1f%%)\n", extinct, runs, 100*float64(extinct)/float64(runs))
	return nil
}

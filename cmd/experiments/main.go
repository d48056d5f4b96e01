// Command experiments regenerates the paper's evaluation artifacts:
// every figure (Figs. 2–12), the Section III numeric claims, and the
// ablations A1–A3. It prints the exact series a plot of each figure
// would show, plus notes comparing measured values with the numbers the
// paper reports.
//
// Usage:
//
//	experiments -list
//	experiments -id fig7 [-runs 1000] [-seed 42]
//	experiments -id fig7 -workers 4     # bound the replication pool (same output)
//	experiments -id fig3 -plot          # draw the figure as ASCII art
//	experiments -all -summary
//
// Monte-Carlo replications fan out across -workers goroutines (default:
// all CPUs). The engine is deterministic — replication r always draws
// from RNG stream r and results merge in replication order — so -workers
// changes wall-clock time only, never a single output byte.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"wormcontain/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		id      = fs.String("id", "", "artifact to regenerate (see -list)")
		all     = fs.Bool("all", false, "regenerate every artifact")
		list    = fs.Bool("list", false, "list artifact ids and exit")
		seed    = fs.Uint64("seed", 0, "random seed (0 = default)")
		runs    = fs.Int("runs", 0, "Monte-Carlo replications (0 = paper's 1000)")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "replication worker pool size (results are identical for any value)")
		quick   = fs.Bool("quick", false, "reduced sizes for a fast smoke run")
		summary = fs.Bool("summary", false, "print only titles and notes, not series")
		asPlot  = fs.Bool("plot", false, "render each artifact's series as an ASCII chart")
		tsvDir  = fs.String("tsv", "", "also write each artifact's series as TSV files into this directory")
		ckptDir = fs.String("checkpoint-dir", "", "journal Monte-Carlo replication progress here; an interrupted regeneration resumes from completed replications")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *all && *id != "" {
		return fmt.Errorf("-id %s and -all are mutually exclusive", *id)
	}

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return nil
	}

	opts := experiments.Options{Seed: *seed, Runs: *runs, Quick: *quick,
		Workers: *workers, CheckpointDir: *ckptDir}
	var results []*experiments.Result
	switch {
	case *all:
		rs, err := experiments.RunAll(opts)
		if err != nil {
			return err
		}
		results = rs
	case *id != "":
		r, err := experiments.Run(*id, opts)
		if err != nil {
			return err
		}
		results = append(results, r)
	default:
		return fmt.Errorf("need -id <artifact> or -all (use -list to enumerate)")
	}

	for _, r := range results {
		if *tsvDir != "" {
			if err := r.WriteTSV(*tsvDir); err != nil {
				return err
			}
		}
		switch {
		case *asPlot:
			fmt.Print(r.Summary())
			fmt.Print(renderPlot(r.Title, r.Series))
		case *summary:
			fmt.Print(r.Summary())
		default:
			fmt.Print(r.Format())
		}
		fmt.Println()
	}
	return nil
}

// Package experiments contains one runner per artifact of the paper's
// evaluation — every figure (Figs. 2–12), the numeric claims embedded in
// the text (Proposition 1 thresholds, Borel–Tanner moments and tail
// bounds), and three ablations the design section calls out. Each runner
// produces structured series (the exact numbers a plot of the figure
// would show) plus notes recording measured-vs-paper values; cmd/
// experiments prints them and EXPERIMENTS.md archives them.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"wormcontain/internal/des"
	"wormcontain/internal/parallel"
)

// Options tune a run without changing what is measured.
type Options struct {
	// Seed selects the deterministic random stream for stochastic
	// experiments.
	Seed uint64
	// Runs is the Monte-Carlo replication count. Zero (and any negative
	// value) is a SENTINEL meaning "use the default": the paper's 1000
	// replications, or 200 under Quick. The sentinel makes an explicit
	// request for zero replications inexpressible, which is deliberate —
	// every stochastic runner needs at least one replication
	// (sim.RunFastMonteCarlo rejects runs < 1) — but note the corollary:
	// any Runs >= 1 is honored exactly as given, even when Quick is set.
	// TestNormalizeDefaults pins this contract.
	Runs int
	// Quick reduces replication counts and simulation sizes for smoke
	// tests; headline shapes survive, confidence intervals widen.
	Quick bool
	// Workers bounds the replication worker pool; 0 (or negative) means
	// parallel.DefaultWorkers() = runtime.GOMAXPROCS(0). The engine is
	// deterministic: every worker count produces bit-identical results,
	// so Workers trades wall-clock only, never output.
	Workers int
	// kernel selects the discrete-event kernel backend for every DES
	// replication (the fast generational Monte-Carlo engine has no event
	// queue and ignores it). Programs leave it at the heap reference
	// backend; TestKernelArtifactParity sets the wheel to pin that both
	// backends produce byte-identical artifacts.
	kernel des.Kind
}

// normalize fills defaults.
func (o Options) normalize() Options {
	if o.Runs <= 0 {
		if o.Quick {
			o.Runs = 200
		} else {
			o.Runs = 1000
		}
	}
	if o.Seed == 0 {
		o.Seed = 20050628 // DSN 2005 conference date
	}
	if o.Workers <= 0 {
		o.Workers = parallel.DefaultWorkers()
	}
	return o
}

// Series is one labelled curve of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Result is a reproduced artifact.
type Result struct {
	// ID is the registry key (e.g. "fig7").
	ID string
	// Title describes the artifact in the paper's terms.
	Title string
	// Series holds the curves the figure plots.
	Series []Series
	// Notes record paper-reported versus measured values and any
	// caveats (e.g. the paper's λ rounding).
	Notes []string
}

// runner produces one artifact.
type runner func(Options) (*Result, error)

// registry maps artifact IDs to runners. Populated by the runner files'
// register calls at package initialization; the map itself is written
// once and read-only afterwards.
var registry = map[string]runner{}

// register adds a runner; duplicate IDs are a programming error.
func register(id string, r runner) {
	if _, dup := registry[id]; dup {
		panic(fmt.Sprintf("experiments: duplicate runner %q", id))
	}
	registry[id] = r
}

// IDs returns all artifact IDs in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes the runner registered under id.
func Run(id string, opts Options) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown artifact %q (known: %s)",
			id, strings.Join(IDs(), ", "))
	}
	return r(opts)
}

// RunAll executes every registered runner in ID order.
func RunAll(opts Options) ([]*Result, error) {
	var out []*Result
	for _, id := range IDs() {
		res, err := Run(id, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", id, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// Format renders the result as the text block cmd/experiments prints:
// title, one aligned column table per series, then the notes.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "-- %s\n", s.Label)
		for i := range s.X {
			fmt.Fprintf(&b, "%14.6g %14.6g\n", s.X[i], s.Y[i])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Summary renders only the title and notes — the part EXPERIMENTS.md
// quotes.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// WriteTSV exports the result's series as tab-separated files under
// dir, one file per series named <id>_<index>.tsv with an x/y header,
// plus <id>_notes.txt — the hand-off format for external plotting
// tools. The directory is created if needed.
func (r *Result) WriteTSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: tsv dir: %w", err)
	}
	for i, s := range r.Series {
		var b strings.Builder
		fmt.Fprintf(&b, "# %s — %s\n", r.Title, s.Label)
		fmt.Fprintf(&b, "x\ty\n")
		for j := range s.X {
			fmt.Fprintf(&b, "%g\t%g\n", s.X[j], s.Y[j])
		}
		name := filepath.Join(dir, fmt.Sprintf("%s_%d.tsv", r.ID, i))
		if err := os.WriteFile(name, []byte(b.String()), 0o644); err != nil {
			return fmt.Errorf("experiments: write %s: %w", name, err)
		}
	}
	notes := filepath.Join(dir, r.ID+"_notes.txt")
	if err := os.WriteFile(notes, []byte(r.Summary()), 0o644); err != nil {
		return fmt.Errorf("experiments: write %s: %w", notes, err)
	}
	return nil
}

// intsToFloats converts an int series to the float64 the Series type
// carries.
func intsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// irange returns [0, 1, ..., n] as float64s.
func irange(n int) []float64 {
	out := make([]float64, n+1)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

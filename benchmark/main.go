// Command benchmark is the repository benchmark: four workloads over
// the simulator path (sim-10m, sim-mc) and the enforcement path
// (gate-conn, decide-stream), measured from outside by timing calls
// into the exported functions of wormcontain/internal/.... README.md
// in this directory has the tables; BENCHMARK.json at the repository
// root is the list of metric names, units, directions and bounds, and
// the program reads it so that the two cannot drift.
//
//	bash benchmark/run.sh --workload sim-mc --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: every end-to-end metric with
// --trace 0, every per-layer metric with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// procStart is the origin of setup_s and of every span.
var procStart = time.Now()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricSpec is one entry of BENCHMARK.json's end_to_end or per_layer.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is a result with its identity, one line of an -out file and
// the input of -compare.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	quick    bool
	nproc    int     // goroutines and connections: NumCPU, at most 4
	tr       *tracer // nil in the untraced pass
	out      io.Writer
	units    map[string]string // every name of BENCHMARK.json

	vals      map[string]float64
	attempted int
	failed    int
	bad       []string
}

// set records a metric of BENCHMARK.json and prints it. A name the
// file does not list, or one set twice, is a bug in the benchmark.
func (b *bench) set(name string, v float64) {
	unit, ok := b.units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in BENCHMARK.json")
	}
	if _, dup := b.vals[name]; dup {
		panic("benchmark: metric " + name + " set twice")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.check(false, "%s is %v: nothing was measured", name, v)
		v = 0
	}
	b.vals[name] = v
	b.info(name, v, unit)
}

// info prints a number that is not a BENCHMARK.json metric of this
// pass: the issue's per-workload names, sample counts, statements.
func (b *bench) info(name string, v float64, unit string) {
	fmt.Fprintf(b.out, "%-36s %16.6g %s\n", name, v, unit)
}

// infoMedian prints a sample's median under name and its size under
// name_samples, and returns the median.
func (b *bench) infoMedian(name string, xs []float64, unit string) float64 {
	m := median(xs)
	b.info(name, m, unit)
	b.info(name+"_samples", float64(len(xs)), "count")
	if len(xs) <= 16 {
		b.say("%s samples: %.6g", name, xs)
	}
	return m
}

func (b *bench) say(format string, args ...any) {
	fmt.Fprintf(b.out, "# "+format+"\n", args...)
}

// check records a correctness check; a failed one fails the run.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		b.bad = append(b.bad, msg)
		b.say("CHECK FAILED: %s", msg)
	}
}

// op counts one attempted operation; a non-nil err counts it failed.
func (b *bench) op(err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		b.say("operation failed: %v", err)
		return false
	}
	return true
}

// scaled divides a size by 100 at -quick scale.
func (b *bench) scaled(n int) int {
	if b.quick {
		return n / 100
	}
	return n
}

var workloads = map[string]func(*bench){
	"sim-10m":       runSim10M,
	"sim-mc":        runSimMC,
	"gate-conn":     runGateConn,
	"decide-stream": runDecideStream,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "sim-10m | sim-mc | gate-conn | decide-stream")
		seed     = fs.Uint64("seed", 1, "seed of every generated input")
		seconds  = fs.Float64("seconds", 0, "length of the measured part (default: run_seconds of BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "1 = traced pass: spans around every call into a layer, per-layer metrics")
		traceOut = fs.String("trace-out", "", "span file of the traced pass (default .bench_build/trace-<workload>.json)")
		quick    = fs.Bool("quick", false, "smoke scale: sizes and streams ÷100, fixed operation counts, no timing value is meaningful")
		specPath = fs.String("spec", "BENCHMARK.json", "path of BENCHMARK.json")
		outPath  = fs.String("out", "", "append the result, with workload and seed, as one JSON line to this file")
		compare  = fs.Bool("compare", false, "compare two -out files: benchmark -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		if err := compareFiles(sp, fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		return 0
	}
	fn := workloads[*workload]
	if fn == nil {
		fmt.Fprintf(stderr, "benchmark: unknown -workload %q\n", *workload)
		return 2
	}
	if *seconds == 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}

	b := &bench{
		workload: *workload, seed: *seed, seconds: *seconds, quick: *quick,
		nproc: min(runtime.NumCPU(), 4), out: stdout,
		units: map[string]string{}, vals: map[string]float64{},
	}
	list := sp.EndToEnd
	if *trace != 0 {
		b.tr = &tracer{workload: *workload}
		list = sp.PerLayer
	}
	for _, m := range list {
		b.units[m.Name] = m.Unit
	}
	b.say("workload=%s seed=%d seconds=%g trace=%d quick=%v nproc=%d gomaxprocs=%d storage=ram",
		*workload, *seed, *seconds, *trace, *quick, b.nproc, runtime.GOMAXPROCS(0))
	b.say("load is generated by this one process with %d goroutines/connections; network traffic crosses the host loopback, not a link", b.nproc)
	b.say("state directories are in-process memory (ramfs.go): no write, fsync or rename system call and no device time is in any number")

	if err := runWorkload(fn, b); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	res := result{Correct: len(b.bad) == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metricValue{}}
	for _, m := range list {
		v, ok := b.vals[m.Name]
		if !ok && *trace == 0 {
			fmt.Fprintf(stderr, "benchmark: %s did not measure %s\n", *workload, m.Name)
			return 1
		}
		// A per-layer metric this workload never reaches reads 0: the
		// layer did no work here.
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	b.info("ops_attempted", float64(b.attempted), "count")
	b.info("ops_failed", float64(b.failed), "count")
	if b.tr != nil {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "trace-"+*workload+".json")
		}
		if err := b.tr.write(path, *seed); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		b.say("%d spans written to %s", len(b.tr.spans), path)
	}
	if *outPath != "" {
		if err := appendRecord(*outPath, record{*workload, *seed, *trace, res}); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || b.attempted < 1 {
		return 1
	}
	return 0
}

// runWorkload turns a must-failure inside a workload into an error, so
// that no result line is printed.
func runWorkload(fn func(*bench), b *bench) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(fatal); ok {
				err = e.err
				return
			}
			panic(r)
		}
	}()
	fn(b)
	return nil
}

// fatal aborts a workload on an error that leaves nothing to measure
// (a listener that cannot be opened, a store that cannot be opened).
type fatal struct{ err error }

func must(err error) {
	if err != nil {
		panic(fatal{err})
	}
}

func must1[T any](v T, err error) T {
	must(err)
	return v
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

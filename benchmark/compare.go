package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRecords reads an -out file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// samples collects a metric's values on a workload over the untraced
// records of one side.
func samples(recs []record, workload, metric string) []float64 {
	var xs []float64
	for _, r := range recs {
		if r.Workload == workload && r.Trace == 0 {
			if m, ok := r.Metrics[metric]; ok {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

// verdictOf applies one end-to-end metric's bound to the runs of a
// (the parent) and b (the change): "worse" when b's median is worse
// than a's by more than the bound; "unresolved" when either side's
// quartile spread is wider than the bound, unless every run of b is
// better than every run of a; otherwise "same".
func verdictOf(m metricSpec, a, b []float64) (string, float64, float64) {
	ma, mb := median(a), median(b)
	sign := 1.0 // positive delta = worse
	if m.Better == "higher" {
		sign = -1
	}
	delta := sign * (mb - ma) / ma
	spread := func(xs []float64) float64 {
		return (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs)
	}
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	allBetter := sign*(sb[len(sb)-1]-sa[0]) < 0 && sign*(sb[0]-sa[len(sa)-1]) < 0
	switch {
	case allBetter:
		return "same", delta, max(spread(a), spread(b))
	case max(spread(a), spread(b)) > m.Bound:
		return "unresolved", delta, max(spread(a), spread(b))
	case delta > m.Bound:
		return "worse", delta, max(spread(a), spread(b))
	}
	return "same", delta, max(spread(a), spread(b))
}

// compareFiles prints one row per (end-to-end metric, workload).
func compareFiles(sp *spec, pathA, pathB string, out io.Writer) error {
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-14s %-18s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "median a", "median b", "worse by", "spread", "bound", "verdict")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			xa, xb := samples(a, w.Name, m.Name), samples(b, w.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(out, "%-14s %-18s %14s %14s %9s %8s %7.2f  missing\n", w.Name, m.Name, "-", "-", "-", "-", m.Bound)
				continue
			}
			v, delta, spread := verdictOf(m, xa, xb)
			fmt.Fprintf(out, "%-14s %-18s %14.6g %14.6g %+8.1f%% %7.1f%% %7.2f  %s\n",
				w.Name, m.Name, median(xa), median(xb), delta*100, spread*100, m.Bound, v)
		}
	}
	return nil
}

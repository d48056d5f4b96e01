package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The smoke test runs every workload at -quick scale (sizes and
// streams ÷100, fixed operation counts) and checks the output's shape
// and that counts repeat. It asserts no wall-clock value.

const specFile = "../BENCHMARK.json"

// smokeRun runs one workload at -quick scale and returns its report
// lines and result.
func smokeRun(t *testing.T, workload string, trace string) (map[string][]string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-workload", workload, "-seed", "7", "-seconds", "1", "-trace", trace, "-quick",
		"-spec", specFile, "-trace-out", filepath.Join(t.TempDir(), "trace.json"),
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace=%s: exit %d\n%s%s", workload, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatalf("%s: last line is not a JSON object: %v", workload, err)
	}
	if got := sortedKeys(keys); strings.Join(got, ",") != "attempted,correct,failed,metrics" {
		t.Fatalf("%s: result keys %v", workload, got)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	// Report lines are "name value unit"; index them by name.
	printed := map[string][]string{}
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); len(f) == 3 && !strings.HasPrefix(l, "#") {
			printed[f[0]] = append(printed[f[0]], f[1]+" "+f[2])
		}
	}
	return printed, res
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// checkMetrics holds a result's metrics to a list of BENCHMARK.json.
func checkMetrics(t *testing.T, workload string, res result, list []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(list) {
		t.Errorf("%s: %d metrics in the result, %d in BENCHMARK.json", workload, len(res.Metrics), len(list))
	}
	for _, m := range list {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: result lacks %s", workload, m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", workload, m.Name, got.Unit, m.Unit)
		}
	}
}

func TestSmoke(t *testing.T) {
	sp, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	layerSeen := map[string]bool{}
	for _, w := range sp.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json lists workload %q, the program has none", w.Name)
		}
		// Untraced: every end-to-end metric printed once, never 0, and a
		// second run of the seed gives the same counts.
		printed, res := smokeRun(t, w.Name, "0")
		checkMetrics(t, w.Name, res, sp.EndToEnd)
		for _, m := range sp.EndToEnd {
			if n := len(printed[m.Name]); n != 1 {
				t.Errorf("%s: %s printed %d times", w.Name, m.Name, n)
			}
			if res.Metrics[m.Name].Value == 0 {
				t.Errorf("%s: %s is 0", w.Name, m.Name)
			}
		}
		again, res2 := smokeRun(t, w.Name, "0")
		if res.Attempted != res2.Attempted {
			t.Errorf("%s: attempted %d, then %d on the same seed", w.Name, res.Attempted, res2.Attempted)
		}
		for name, vals := range printed {
			if strings.HasSuffix(vals[0], " count") && strings.Join(vals, ";") != strings.Join(again[name], ";") {
				t.Errorf("%s: count %s is %v, then %v on the same seed", w.Name, name, vals, again[name])
			}
		}

		// Traced: every per-layer metric in the result; the ones this
		// workload measures printed once.
		printed, res = smokeRun(t, w.Name, "1")
		checkMetrics(t, w.Name, res, sp.PerLayer)
		for _, m := range sp.PerLayer {
			switch n := len(printed[m.Name]); {
			case n > 1:
				t.Errorf("%s: %s printed %d times", w.Name, m.Name, n)
			case n == 1:
				layerSeen[m.Name] = true
			}
		}
	}
	for _, m := range sp.PerLayer {
		if !layerSeen[m.Name] {
			t.Errorf("no workload measures per-layer metric %s", m.Name)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "restore_s", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"unchanged", lower, steady, steady, "same"},
		{"slower by 20%", lower, steady, scale(steady, 1.2), "worse"},
		{"faster by 20%", lower, steady, scale(steady, 0.8), "same"},
		{"rate down 20%", higher, steady, scale(steady, 0.8), "worse"},
		{"rate up 20%", higher, steady, scale(steady, 1.2), "same"},
		{"spread over bound", lower, noisy, noisy, "unresolved"},
		{"noisy but every run better", lower, scale(noisy, 10), noisy, "same"},
	} {
		if got, _, _ := verdictOf(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

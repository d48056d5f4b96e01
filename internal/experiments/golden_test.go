package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"sync"
	"testing"

	"wormcontain/internal/des"
)

// The quick catalogue pins the byte-exact formatted output of every
// artifact. Fingerprints live in testdata/golden.json; regenerate with
// -update only when a change is meant to alter sample paths.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json")

const goldenPath = "testdata/golden.json"

// catalogueLegs are the two runs of each artifact at each golden seed.
// Each kernel runs once serially and once on a multi-worker pool, so a
// byte-equal pair checks worker-count invariance and heap/wheel parity
// at once, and the golden fingerprint pins both runs to the recording.
var catalogueLegs = [2][2]Options{
	{
		{Seed: 1, Quick: true, Workers: 1, kernel: des.KernelHeap},
		{Seed: 1, Quick: true, Workers: 8, kernel: des.KernelWheel},
	},
	{
		{Seed: 1905, Quick: true, Workers: 1, kernel: des.KernelWheel},
		{Seed: 1905, Quick: true, Workers: 3, kernel: des.KernelHeap},
	},
}

// catalogueRun is one artifact run of the catalogue pass.
type catalogueRun struct {
	opts  Options
	text  string // Format() rendering
	notes int
	err   error
}

var (
	catalogueMu   sync.Mutex
	catalogueMemo = map[string]func() [2][2]catalogueRun{}
)

// catalogueRuns returns an artifact's runs, indexed like catalogueLegs.
// Each artifact runs once per process: every test below reads the same
// pass, whichever of them comes first.
func catalogueRuns(id string) [2][2]catalogueRun {
	catalogueMu.Lock()
	run, ok := catalogueMemo[id]
	if !ok {
		run = sync.OnceValue(func() (runs [2][2]catalogueRun) {
			for l, leg := range catalogueLegs {
				for i, opts := range leg {
					r := catalogueRun{opts: opts}
					res, err := Run(id, opts)
					if r.err = err; err == nil {
						r.text, r.notes = res.Format(), len(res.Notes)
					}
					runs[l][i] = r
				}
			}
			return runs
		})
		catalogueMemo[id] = run
	}
	catalogueMu.Unlock()
	return run()
}

// wholeCatalogue returns every artifact ID, skipping t under -short.
func wholeCatalogue(t *testing.T) []string {
	if testing.Short() {
		t.Skip("regenerates the whole catalogue twice per seed")
	}
	return IDs()
}

// eachArtifact applies check to the catalogue runs of ids, one parallel
// subtest per artifact, and returns once all of them have finished. A
// run that errors fails its subtest before check sees it.
func eachArtifact(t *testing.T, ids []string, check func(t *testing.T, id string, legs [2][2]catalogueRun)) {
	t.Run("artifacts", func(t *testing.T) {
		for _, id := range ids {
			t.Run(id, func(t *testing.T) {
				t.Parallel()
				legs := catalogueRuns(id)
				for _, leg := range legs {
					for _, r := range leg {
						if r.err != nil {
							t.Fatalf("seed %d %v workers=%d: %v", r.opts.Seed, r.opts.kernel, r.opts.Workers, r.err)
						}
					}
				}
				check(t, id, legs)
			})
		}
	})
}

// legsAgree checks that the two runs at each seed render byte-for-byte
// alike. The runs differ in both kernel and worker count, so this one
// comparison is the worker-count and the kernel-parity contract; the
// golden fingerprints tell which run moved.
func legsAgree(t *testing.T, _ string, legs [2][2]catalogueRun) {
	for _, leg := range legs {
		a, b := leg[0], leg[1]
		if a.text != b.text {
			t.Errorf("seed %d: %v workers=%d and %v workers=%d output differs:\n"+
				"--- first ---\n%s\n--- second ---\n%s",
				a.opts.Seed, a.opts.kernel, a.opts.Workers, b.opts.kernel, b.opts.Workers, a.text, b.text)
		}
	}
}

func goldenKey(id string, seed uint64) string { return fmt.Sprintf("%s/seed=%d", id, seed) }

// fingerprint is the FNV-64a of an artifact's full Format() rendering:
// every series value and note, byte for byte.
func fingerprint(text string) string {
	h := fnv.New64a()
	h.Write([]byte(text)) // hash.Hash writes never fail
	return fmt.Sprintf("%016x", h.Sum64())
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	return want
}

// matchGolden checks every run of an artifact against the recorded
// fingerprint of its seed.
func matchGolden(want map[string]string) func(*testing.T, string, [2][2]catalogueRun) {
	return func(t *testing.T, id string, legs [2][2]catalogueRun) {
		for _, leg := range legs {
			for _, r := range leg {
				key := goldenKey(id, r.opts.Seed)
				if fp, w := fingerprint(r.text), want[key]; fp != w {
					t.Errorf("%s (%v workers=%d): fingerprint %s, golden %q — artifact output changed",
						key, r.opts.kernel, r.opts.Workers, fp, w)
				}
			}
		}
	}
}

// TestGoldenArtifacts pins every artifact's formatted output at both
// golden seeds to the recorded fingerprints; the golden keys must be
// exactly the catalogue's IDs × seeds. With -update it rewrites the
// file from a run whose legs agree.
func TestGoldenArtifacts(t *testing.T) {
	ids := wholeCatalogue(t)
	if *updateGolden {
		eachArtifact(t, ids, legsAgree)
		if t.Failed() {
			t.Fatal("not rewriting the golden file after a failed run")
		}
		got := map[string]string{}
		for _, id := range ids {
			for _, leg := range catalogueRuns(id) {
				got[goldenKey(id, leg[0].opts.Seed)] = fingerprint(leg[0].text)
			}
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(got), goldenPath)
		return
	}

	want := readGolden(t)
	var keys, have []string
	for _, id := range ids {
		for _, leg := range catalogueLegs {
			keys = append(keys, goldenKey(id, leg[0].Seed))
		}
	}
	for key := range want {
		have = append(have, key)
	}
	slices.Sort(keys)
	slices.Sort(have)
	if !slices.Equal(have, keys) {
		t.Errorf("golden keys %v, want exactly %v (rerun with -update)", have, keys)
	}
	eachArtifact(t, ids, matchGolden(want))
}

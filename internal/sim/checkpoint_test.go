package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/defense"
	"wormcontain/internal/des"
	"wormcontain/internal/rng"
	"wormcontain/internal/topo"
)

// memSink is an in-memory CheckpointSink: it copies every payload and
// assigns ascending generations, so a test can resume from any cut.
type memSink struct {
	payloads [][]byte
}

func (m *memSink) Save(p []byte) (uint64, error) {
	m.payloads = append(m.payloads, append([]byte(nil), p...))
	return uint64(len(m.payloads)), nil
}

// checkpointScenario builds one FRESH config per call (stateful
// defenses and RNG-backed quarantines must never be shared between
// runs). Beyond the golden scenarios it adds defense-rich cases that
// exercise the delayed-delivery slot table (throttle), the quarantine's
// RNG-and-window state with a duty-cycled stealth worm, and a
// horizon-free run that drains to extinction.
func checkpointScenario(t *testing.T, name string, seed uint64) Config {
	t.Helper()
	if cfgs, err := goldenRunConfigs(seed); err != nil {
		t.Fatal(err)
	} else if cfg, ok := cfgs[name]; ok {
		return cfg
	}
	pfx, err := addr.ParsePrefix("10.60.0.0/16")
	if err != nil {
		t.Fatal(err)
	}
	routable, err := addr.NewRoutable([]addr.Prefix{pfx})
	if err != nil {
		t.Fatal(err)
	}
	switch name {
	case "throttle-duty":
		return Config{
			V: 3000, I0: 6, ScanRate: 30,
			Scanner: routable, ClusterPrefix: &pfx,
			Defense:   defense.NewWilliamsonThrottle(),
			DutyCycle: &DutyCycleConfig{On: 2 * time.Second, Off: time.Second},
			PatchRate: 0.003, MaxInfected: 2500,
			Horizon: 60 * time.Second, RecordPaths: true, RecordTree: true,
			Seed: seed, Stream: 11,
		}
	case "quarantine":
		q, err := defense.NewQuarantine(0.05, 500*time.Millisecond, rng.NewPCG64(seed, 77))
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			V: 2500, I0: 5, ScanRate: 25,
			Scanner: routable, ClusterPrefix: &pfx,
			Defense: q, ImmunizeRate: 0.0008, MaxInfected: 2200,
			Horizon: 45 * time.Second,
			Seed:    seed, Stream: 13,
		}
	case "drain-mlimit":
		m, err := defense.NewMLimit(100, 365*24*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			V: 3000, I0: 5, ScanRate: 15,
			Scanner: routable, ClusterPrefix: &pfx,
			Defense: m, // every host retires after 100 scans: the queue drains
			Seed:    seed, Stream: 17,
		}
	case "seed-truncated":
		// Seeding alone reaches MaxInfected, so the run must fire no
		// event at all, checkpointed or not.
		return Config{
			V: 2000, I0: 10, ScanRate: 20,
			MaxInfected: 5, PatchRate: 0.1,
			Seed: seed, Stream: 19,
		}
	default:
		t.Fatalf("unknown checkpoint scenario %q", name)
		return Config{}
	}
}

func checkpointScenarioNames() []string {
	return []string{
		"enterprise-mlimit", "uncontained-countermeasures",
		"throttle-duty", "quarantine", "drain-mlimit", "seed-truncated",
	}
}

// scenarioInterval picks a checkpoint interval short enough that every
// scenario's active phase (which can end well before the horizon —
// subcritical cascades die, capped outbreaks truncate) spans several
// cuts.
func scenarioInterval(name string) time.Duration {
	switch name {
	case "throttle-duty":
		return 2 * time.Second
	case "enterprise-mlimit", "uncontained-countermeasures":
		return 500 * time.Millisecond
	default:
		return time.Second
	}
}

// uninterruptedFingerprint runs the scenario with plain RunInto.
func uninterruptedFingerprint(t *testing.T, name string, seed uint64, kernel des.Kind) string {
	t.Helper()
	cfg := checkpointScenario(t, name, seed)
	cfg.Kernel = kernel
	var res Result
	if err := RunInto(cfg, nil, &res); err != nil {
		t.Fatalf("%s seed %d %v: %v", name, seed, kernel, err)
	}
	return fingerprintResult(&res)
}

// checkpointedRun runs the scenario under RunCheckpointed with an
// invariant checker attached, returning the fingerprint, the captured
// payloads and the stats.
func checkpointedRun(t *testing.T, name string, seed uint64, kernel des.Kind) (string, [][]byte, CheckpointStats) {
	t.Helper()
	cfg := checkpointScenario(t, name, seed)
	cfg.Kernel = kernel
	cfg.invariants = &invariantChecker{}
	sink := &memSink{}
	var stats CheckpointStats
	var res Result
	err := RunCheckpointed(cfg, nil, &res, CheckpointOptions{
		Sink: sink, Interval: scenarioInterval(name), Stats: &stats,
	})
	if err != nil {
		t.Fatalf("%s seed %d %v: %v", name, seed, kernel, err)
	}
	if cfg.invariants.cuts == 0 {
		t.Fatalf("%s seed %d: invariant checker never audited a cut", name, seed)
	}
	return fingerprintResult(&res), sink.payloads, stats
}

// resumeFingerprint decodes payload and resumes it to completion on
// the given kernel, optionally through a shared (dirty) scratch.
func resumeFingerprint(t *testing.T, name string, seed uint64, kernel des.Kind,
	payload []byte, scratch *Scratch) string {
	t.Helper()
	ck, err := DecodeCheckpoint(payload)
	if err != nil {
		t.Fatalf("%s seed %d: decode: %v", name, seed, err)
	}
	cfg := checkpointScenario(t, name, seed)
	cfg.Kernel = kernel
	var res Result
	if err := ResumeFromCheckpoint(cfg, scratch, &res, ck); err != nil {
		t.Fatalf("%s seed %d %v: resume: %v", name, seed, kernel, err)
	}
	return fingerprintResult(&res)
}

// resumeCuts picks a spread of cuts to resume from: the first, the
// middle and the final checkpoint.
func resumeCuts(payloads [][]byte) []int {
	switch len(payloads) {
	case 0:
		return nil
	case 1:
		return []int{0}
	case 2:
		return []int{0, 1}
	default:
		return []int{0, len(payloads) / 2, len(payloads) - 1}
	}
}

// kernelRun is one kernel's pair of runs of a (scenario, seed): the
// uninterrupted fingerprint and the checkpointed run's fingerprint,
// payloads and stats.
type kernelRun struct {
	want, got string
	payloads  [][]byte
	stats     CheckpointStats
}

// kernelRuns memoises kernelRunFor, so the resume matrix makes each
// (kernel, seed, scenario) run once however many of its tests run.
var kernelRuns = map[string]kernelRun{}

func kernelRunFor(t *testing.T, name string, seed uint64, kernel des.Kind) kernelRun {
	t.Helper()
	key := fmt.Sprintf("%s/seed=%d/%v", name, seed, kernel)
	if r, ok := kernelRuns[key]; ok {
		return r
	}
	r := kernelRun{want: uninterruptedFingerprint(t, name, seed, kernel)}
	r.got, r.payloads, r.stats = checkpointedRun(t, name, seed, kernel)
	kernelRuns[key] = r
	return r
}

var resumeKernels = []des.Kind{des.KernelHeap, des.KernelWheel}

// TestCheckpointedRunEquivalence is the resume matrix on one kernel at
// a time: RunCheckpointed's trajectory is byte-identical to RunInto's,
// every resumed payload decodes and re-encodes to itself, and the
// first, middle and last cut — through a shared dirty scratch —
// resume to the uninterrupted fingerprint.
func TestCheckpointedRunEquivalence(t *testing.T) {
	scratch := NewScratch() // shared across every resume: dirty on purpose
	for _, kernel := range resumeKernels {
		for _, seed := range goldenSeeds {
			for _, name := range checkpointScenarioNames() {
				key := fmt.Sprintf("%s/seed=%d/%v", name, seed, kernel)
				r := kernelRunFor(t, name, seed, kernel)
				if r.got != r.want {
					t.Errorf("%s: checkpointed run %s != uninterrupted %s", key, r.got, r.want)
				}
				// A run that fires events cuts at least once before its
				// final checkpoint; seed-truncated fires none, so its one
				// write is the final cut.
				minWrites, maxWrites := uint64(2), uint64(math.MaxUint64)
				if name == "seed-truncated" {
					minWrites, maxWrites = 1, 1
				}
				if r.stats.Writes != uint64(len(r.payloads)) || r.stats.Writes < minWrites || r.stats.Writes > maxWrites {
					t.Errorf("%s: %d writes recorded, %d payloads captured",
						key, r.stats.Writes, len(r.payloads))
				}
				if r.stats.LastGen != uint64(len(r.payloads)) || r.stats.Bytes != len(r.payloads[len(r.payloads)-1]) {
					t.Errorf("%s: stats %+v inconsistent with sink", key, r.stats)
				}
				for _, cut := range resumeCuts(r.payloads) {
					p := r.payloads[cut]
					ck, err := DecodeCheckpoint(p)
					if err != nil {
						t.Fatalf("%s cut %d: decode: %v", key, cut, err)
					}
					if re := EncodeCheckpoint(ck); !bytes.Equal(re, p) {
						t.Fatalf("%s cut %d: decode∘encode is not the identity", key, cut)
					}
					if got := resumeFingerprint(t, name, seed, kernel, p, scratch); got != r.want {
						t.Errorf("%s cut %d: resumed %s != uninterrupted %s", key, cut, got, r.want)
					}
				}
			}
		}
	}
}

// TestResumeKernelCrossing resumes heap-written checkpoints on the
// wheel and wheel-written checkpoints on the heap, each from a fresh
// scratch: the exported pending-event form is kernel-neutral, so the
// two kernels' uninterrupted fingerprints agree and every crossing
// lands on them.
func TestResumeKernelCrossing(t *testing.T) {
	for _, seed := range goldenSeeds {
		for _, name := range checkpointScenarioNames() {
			heap := kernelRunFor(t, name, seed, des.KernelHeap)
			wheel := kernelRunFor(t, name, seed, des.KernelWheel)
			if heap.want != wheel.want {
				t.Errorf("%s/seed=%d: heap fingerprint %s != wheel %s", name, seed, heap.want, wheel.want)
			}
			for i, src := range resumeKernels {
				dst := resumeKernels[1-i]
				from, want := kernelRunFor(t, name, seed, src), kernelRunFor(t, name, seed, dst).want
				for _, cut := range resumeCuts(from.payloads) {
					got := resumeFingerprint(t, name, seed, dst, from.payloads[cut], nil)
					if got != want {
						t.Errorf("%s seed %d cut %d %v->%v: %s != %s",
							name, seed, cut, src, dst, got, want)
					}
				}
			}
		}
	}
}

// TestResumeLongerHorizon checkpoints a short-horizon run and resumes
// it under a longer horizon: the continuation must match a run that had
// the longer horizon from the start (the checkpoint identity is the
// trajectory, not the stop condition).
func TestResumeLongerHorizon(t *testing.T) {
	const name = "uncontained-countermeasures"
	for _, seed := range goldenSeeds {
		short := checkpointScenario(t, name, seed)
		short.Horizon = 30 * time.Second
		sink := &memSink{}
		var res Result
		if err := RunCheckpointed(short, nil, &res, CheckpointOptions{
			Sink: sink, Interval: 5 * time.Second,
		}); err != nil {
			t.Fatal(err)
		}
		ck, err := DecodeCheckpoint(sink.payloads[len(sink.payloads)-1])
		if err != nil {
			t.Fatal(err)
		}
		long := checkpointScenario(t, name, seed) // the full 90s horizon
		var resumed Result
		if err := ResumeFromCheckpoint(long, nil, &resumed, ck); err != nil {
			t.Fatal(err)
		}
		want := uninterruptedFingerprint(t, name, seed, des.KernelHeap)
		if got := fingerprintResult(&resumed); got != want {
			t.Errorf("seed %d: short-then-long %s != long-from-start %s", seed, got, want)
		}
	}
}

// TestCheckpointStopRequested interrupts a run via the Stop hook after
// a few cuts, checks ErrStopRequested, and verifies the final
// checkpoint — written at the interruption — resumes to the exact
// uninterrupted fingerprint. This is the SIGTERM path end to end.
func TestCheckpointStopRequested(t *testing.T) {
	// throttle-duty runs its full 60s horizon (the throttle paces the
	// outbreak), so events are guaranteed to remain when the stop fires.
	const name, seed = "throttle-duty", uint64(7)
	want := uninterruptedFingerprint(t, name, seed, des.KernelWheel)

	cfg := checkpointScenario(t, name, seed)
	cfg.Kernel = des.KernelWheel
	sink := &memSink{}
	var res Result
	err := RunCheckpointed(cfg, nil, &res, CheckpointOptions{
		Sink:     sink,
		Interval: scenarioInterval(name),
		Stop:     func() bool { return len(sink.payloads) >= 3 },
	})
	if !errors.Is(err, ErrStopRequested) {
		t.Fatalf("err = %v, want ErrStopRequested", err)
	}
	if len(sink.payloads) < 4 { // 3 periodic cuts + the final checkpoint
		t.Fatalf("expected a final checkpoint after the stop, have %d", len(sink.payloads))
	}
	if res.EndTime == 0 || res.Truncated {
		t.Fatalf("interrupted result looks wrong: %+v", res)
	}
	got := resumeFingerprint(t, name, seed, des.KernelWheel,
		sink.payloads[len(sink.payloads)-1], nil)
	if got != want {
		t.Errorf("resume after stop: %s != uninterrupted %s", got, want)
	}
}

// TestCheckpointRejects pins the fail-fast paths: unsupported
// configurations, scenario mismatches, corrupted state and a sink
// without an interval.
func TestCheckpointRejects(t *testing.T) {
	base := func() Config { return checkpointScenario(t, "enterprise-mlimit", 1) }

	var res Result
	cfgBG := base()
	cfgBG.Background = &BackgroundConfig{Hosts: 10, ConnRate: 1, NewDestProb: 0.1}
	if err := RunCheckpointed(cfgBG, nil, &res, CheckpointOptions{}); err == nil || !strings.Contains(err.Error(), "Background") {
		t.Errorf("background traffic: %v, want it refused by name", err)
	}
	if err := RunCheckpointed(base(), nil, &res, CheckpointOptions{Sink: &memSink{}}); err == nil {
		t.Error("sink without interval accepted")
	}

	// A valid checkpoint against configurations that each differ from
	// it in one scenario entry. The graph scenarios cover the entries
	// that only topology mode can set.
	firstCut := func(cfg Config) ([]byte, *Checkpoint) {
		sink := &memSink{}
		if err := RunCheckpointed(cfg, nil, &res, CheckpointOptions{
			Sink: sink, Interval: scenarioInterval("enterprise-mlimit"),
		}); err != nil {
			t.Fatal(err)
		}
		ck, err := DecodeCheckpoint(sink.payloads[0])
		if err != nil {
			t.Fatal(err)
		}
		return sink.payloads[0], ck
	}
	tree := func(branching int) *topo.Graph {
		g, err := topo.Tree{N: 2000, Branching: branching}.Generate(1)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	onGraph := func() Config {
		c := base()
		c.Scanner, c.ClusterPrefix, c.Topology = nil, nil, tree(3)
		return c
	}
	payload, ck := firstCut(base())
	_, graphCk := firstCut(onGraph())
	mismatches := []struct {
		entry   string
		onGraph bool
		mutate  func(c *Config)
	}{
		{"V", false, func(c *Config) { c.V++ }},
		{"I0", false, func(c *Config) { c.I0++ }},
		{"ScanRate", false, func(c *Config) { c.ScanRate *= 2 }},
		{"Seed", false, func(c *Config) { c.Seed++ }},
		{"Stream", false, func(c *Config) { c.Stream++ }},
		{"PatchRate", false, func(c *Config) { c.PatchRate = 0.01 }},
		{"ImmunizeRate", false, func(c *Config) { c.ImmunizeRate = 0.001 }},
		{"EdgeScanRate", true, func(c *Config) { c.EdgeScanRate = true }},
		{"Topology", true, func(c *Config) { c.Topology = tree(4) }},
		{"Defense", false, func(c *Config) { c.Defense = defense.Null{} }},
		{"Scanner", false, func(c *Config) { c.Scanner = addr.Uniform{} }},
		{"ClusterPrefix", false, func(c *Config) { c.ClusterPrefix = nil }},
		{"DutyCycle", false, func(c *Config) { c.DutyCycle = &DutyCycleConfig{On: time.Second, Off: time.Second} }},
		{"RecordPaths", false, func(c *Config) { c.RecordPaths = !c.RecordPaths }},
		{"RecordTree", false, func(c *Config) { c.RecordTree = !c.RecordTree }},
	}
	covered := map[string]bool{}
	for _, tc := range mismatches {
		covered[tc.entry] = true
		bad, from := base(), ck
		if tc.onGraph {
			bad, from = onGraph(), graphCk
		}
		tc.mutate(&bad)
		err := ResumeFromCheckpoint(bad, nil, &res, from)
		if err == nil || !strings.Contains(err.Error(), "checkpoint "+tc.entry+" ") {
			t.Errorf("mismatched %s: resume = %v, want it refused by name", tc.entry, err)
		}
	}
	for _, e := range scenario {
		if e.value != nil && !covered[e.field] {
			t.Errorf("scenario entry %s has no mismatch case", e.field)
		}
	}

	// Corrupted dynamic state must fail deep validation, not
	// mis-simulate. Every rejected resume goes through one Scratch,
	// which must then resume the clean checkpoint to the result a fresh
	// one reaches.
	var clean Result
	if err := ResumeFromCheckpoint(base(), nil, &clean, ck); err != nil {
		t.Fatal(err)
	}
	want := fingerprintResult(&clean)
	scratch := NewScratch()
	corrupt := func(name string, mutate func(c *Checkpoint)) error {
		c, err := DecodeCheckpoint(payload)
		if err != nil {
			t.Fatal(err)
		}
		mutate(c)
		rejected := ResumeFromCheckpoint(base(), scratch, &res, c)
		if rejected == nil {
			t.Errorf("corrupt checkpoint (%s) accepted", name)
		}
		if c, err = DecodeCheckpoint(payload); err != nil {
			t.Fatal(err)
		}
		var again Result
		if err := ResumeFromCheckpoint(base(), scratch, &again, c); err != nil {
			t.Errorf("clean resume after the %s rejection: %v", name, err)
		} else if got := fingerprintResult(&again); got != want {
			t.Errorf("clean resume after the %s rejection: %s, want %s", name, got, want)
		}
		return rejected
	}
	corrupt("counter drift", func(c *Checkpoint) { c.TotalRemoved++ })
	corrupt("dup address", func(c *Checkpoint) { c.Addrs[1] = c.Addrs[0] })
	corrupt("event before clock", func(c *Checkpoint) {
		if len(c.Pending) > 0 && c.Now > 0 {
			c.Pending[0].At = c.Now - 1
		} else {
			c.Pending = append(c.Pending, PendingEvent{At: -1, Kind: evScan})
		}
	})
	corrupt("event kind", func(c *Checkpoint) {
		c.Pending = append(c.Pending, PendingEvent{At: c.Now, Kind: evKinds})
	})
	corrupt("infected/removed overlap", func(c *Checkpoint) {
		c.Infected[0] |= 1
		c.Removed[0] |= 1
	})
	corrupt("free slot range", func(c *Checkpoint) {
		c.FreeDeliv = append(c.FreeDeliv, int32(len(c.Deliv)))
	})
	// The population is rebuilt beside the rest of the state; when both
	// are corrupt, the population's error is the one reported.
	err := corrupt("dup address and overlap", func(c *Checkpoint) {
		c.Addrs[1] = c.Addrs[0]
		c.Infected[0] |= 1
		c.Removed[0] |= 1
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate address") {
		t.Errorf("dup address and overlap: resume = %v, want the duplicate-address error", err)
	}
}

// TestResumeRejectsOtherScanner cuts throttle-duty, whose worm scans
// only its routable /16, at its middle checkpoint and resumes it under a
// uniform scanner. The scanner sets the density p behind the threshold
// λ = M·p, so the continuation would be another branching process: the
// resume must be refused with an error that names the scanner.
func TestResumeRejectsOtherScanner(t *testing.T) {
	const name, seed = "throttle-duty", uint64(1)
	r := kernelRunFor(t, name, seed, des.KernelHeap)
	ck, err := DecodeCheckpoint(r.payloads[len(r.payloads)/2])
	if err != nil {
		t.Fatal(err)
	}
	cfg := checkpointScenario(t, name, seed)
	cfg.Scanner = addr.Uniform{}
	var res Result
	if err := ResumeFromCheckpoint(cfg, nil, &res, ck); err == nil || !strings.Contains(err.Error(), "Scanner") {
		t.Fatalf("resume under a uniform scanner = %v, want the scanner mismatch", err)
	}
}

// runControl lists the Config fields that are neither scenario entries
// nor in its not-checkpointable class, each with the reason a resume may
// change it.
var runControl = map[string]string{
	"Horizon":      "a stop condition: a cut taken under one horizon continues under a longer one",
	"MaxInfected":  "a stop condition, like Horizon",
	"maxEvents":    "a runaway guard, not part of the trajectory",
	"ScanObserver": "observes delivered scans and changes none",
	"Metrics":      "counts what the run does and draws nothing",
	"Kernel":       "both kernels fire in (time, seq) order, and a cut resumes on either",
	"invariants":   "audits the run, consuming no randomness and scheduling no event",
}

// TestCheckpointClassifiesEveryConfigField requires every Config field
// to be a scenario entry, in its not-checkpointable class or run
// control, so a new field cannot be left out of a checkpoint silently.
func TestCheckpointClassifiesEveryConfigField(t *testing.T) {
	class := map[string]string{}
	for _, e := range scenario {
		class[e.field] = "a scenario entry"
		if e.value == nil {
			class[e.field] = "not checkpointable"
		}
	}
	for field := range runControl {
		if c, ok := class[field]; ok {
			t.Errorf("%s is both %s and run control", field, c)
		}
		class[field] = "run control"
	}
	ty := reflect.TypeOf(Config{})
	for i := 0; i < ty.NumField(); i++ {
		field := ty.Field(i).Name
		if _, ok := class[field]; !ok {
			t.Errorf("Config.%s is unclassified: add it to the scenario table or to runControl with its reason", field)
		}
		delete(class, field)
	}
	for field, c := range class {
		t.Errorf("%s is classified as %s but is no Config field", field, c)
	}
}

// TestCheckpointDecodeRefusesVersion1 pins that a payload of the
// previous format, whose scenario lacks the scanner, is refused by its
// version rather than resumed.
func TestCheckpointDecodeRefusesVersion1(t *testing.T) {
	p := EncodeCheckpoint(&Checkpoint{})
	binary.LittleEndian.PutUint16(p[len(checkpointMagic):], 1)
	if _, err := DecodeCheckpoint(p); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 payload: %v, want it refused by version", err)
	}
}

// TestResumeRejectsOutOfRangeGeneration feeds ResumeCheckpointed a
// checkpoint whose per-host generations lie outside the generation
// histogram. Infection indexes the histogram with the parent's
// generation plus one, so a negative entry used to panic at the first
// infection and a huge one to grow the histogram without bound; both
// must be rejected as corrupt before the run starts.
func TestResumeRejectsOutOfRangeGeneration(t *testing.T) {
	pfx := mustPrefix(t, "10.0.0.0/20")
	routable, err := addr.NewRoutable([]addr.Prefix{*pfx})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		V: 2000, I0: 5, ScanRate: 50,
		Scanner: routable, ClusterPrefix: pfx,
		MaxInfected: 2000, Horizon: time.Minute,
		Seed: 3,
	}
	sink := &memSink{}
	polls := 0
	var res Result
	err = RunCheckpointed(cfg, nil, &res, CheckpointOptions{
		Sink: sink, Interval: des.MaxTime / 2,
		Stop: func() bool { polls++; return polls > 3 },
	})
	if !errors.Is(err, ErrStopRequested) {
		t.Fatalf("err = %v, want ErrStopRequested", err)
	}
	payload := sink.payloads[len(sink.payloads)-1]
	for _, g := range []int32{-7, -1, int32(len(res.Generations)), math.MaxInt32} {
		t.Run(fmt.Sprint(g), func(t *testing.T) {
			ck, err := DecodeCheckpoint(payload)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ck.Gen {
				ck.Gen[i] = g
			}
			if ck, err = DecodeCheckpoint(EncodeCheckpoint(ck)); err != nil {
				t.Fatalf("decoder rejected the re-encoded payload: %v", err)
			}
			err = ResumeFromCheckpoint(cfg, nil, &res, ck)
			if err == nil || !strings.Contains(err.Error(), "generation") {
				t.Fatalf("resume = %v, want the out-of-range generation rejected", err)
			}
		})
	}
}

// TestInvariantChecker covers the audit machinery directly: a clean run
// records no violations, and each deliberately corrupted state is
// caught at the next cut.
func TestInvariantChecker(t *testing.T) {
	cfg := checkpointScenario(t, "uncontained-countermeasures", 1905)
	cfg.invariants = &invariantChecker{}
	scratch := NewScratch()
	var res Result
	if err := RunInto(cfg, scratch, &res); err != nil {
		t.Fatal(err)
	}
	if cfg.invariants.cuts != 1 || len(cfg.invariants.violations) != 0 {
		t.Fatalf("clean run: cuts=%d violations=%v",
			cfg.invariants.cuts, cfg.invariants.violations)
	}

	// Corrupt the engine that run left behind and audit it again.
	e := &scratch.eng
	e.res = &res
	check := func(name string, mutate, undo func()) {
		ic := &invariantChecker{}
		mutate()
		ic.checkCut(e)
		undo()
		if ic.err() == nil {
			t.Errorf("%s: corruption not detected", name)
		}
		*ic = invariantChecker{}
		ic.checkCut(e)
		if err := ic.err(); err != nil {
			t.Errorf("%s: clean state flagged after undo: %v", name, err)
		}
	}
	check("active drift",
		func() { e.state.active++ },
		func() { e.state.active-- })
	check("shard drift",
		func() { e.state.shardActive[0]++ },
		func() { e.state.shardActive[0]-- })
	check("counter drift",
		func() { res.TotalInfected++ },
		func() { res.TotalInfected-- })
	// For the overlap probe, mark a removed host as also infected (the
	// exact corruption the disjointness audit exists for).
	overlap := -1
	for i := 0; i < cfg.V; i++ {
		if !e.state.isInfected(i) && !e.state.isSusceptible(i) {
			overlap = i
			break
		}
	}
	if overlap < 0 {
		t.Fatal("scenario produced no removed host")
	}
	w, bit := overlap>>6, uint64(1)<<(uint(overlap)&63)
	check("overlap",
		func() {
			e.state.infected[w] |= bit
			e.state.active++
			e.state.shardActive[overlap>>shardBits]++
			res.TotalInfected++
		},
		func() {
			e.state.infected[w] &^= bit
			e.state.active--
			e.state.shardActive[overlap>>shardBits]--
			res.TotalInfected--
		})

	// Clock regression and the removed-host scan probe.
	ic := &invariantChecker{}
	ic.observeEvent(5 * time.Second)
	ic.observeEvent(3 * time.Second)
	if ic.err() == nil {
		t.Error("clock regression not detected")
	}
	ic = &invariantChecker{}
	victim := -1
	for i := 0; i < cfg.V; i++ {
		if e.state.isInfected(i) {
			victim = i
			break
		}
	}
	if victim >= 0 {
		e.state.removed[victim>>6] |= 1 << (uint(victim) & 63)
		ic.observeScan(e, victim)
		e.state.removed[victim>>6] &^= 1 << (uint(victim) & 63)
		if ic.err() == nil {
			t.Error("removed-host scan not detected")
		}
	}
	e.res = nil
}

// TestInvariantCheckerSurfacesError wires a checker that is guaranteed
// to fire (corrupted mid-run through the scan observer) and checks the
// violation reaches RunInto's error return.
func TestInvariantCheckerSurfacesError(t *testing.T) {
	cfg := checkpointScenario(t, "enterprise-mlimit", 1)
	scratch := NewScratch()
	cfg.invariants = &invariantChecker{}
	broke := false
	cfg.ScanObserver = func(src, dst addr.IP, at time.Duration) {
		if !broke {
			scratch.eng.state.active++ // counter drift the end-of-run cut must catch
			broke = true
		}
	}
	var res Result
	err := RunInto(cfg, scratch, &res)
	if err == nil {
		t.Fatal("invariant violation did not surface as an error")
	}
	scratch.eng.state.active-- // restore for any later reuse
}

// FuzzCheckpointDecode fuzzes the binary decoder: arbitrary input must
// never panic or over-read, and any accepted payload must re-encode to
// exactly the input bytes (canonical form).
func FuzzCheckpointDecode(f *testing.F) {
	cfgs, err := goldenRunConfigs(1)
	if err != nil {
		f.Fatal(err)
	}
	sink := &memSink{}
	var res Result
	if err := RunCheckpointed(cfgs["uncontained-countermeasures"], nil, &res, CheckpointOptions{
		Sink: sink, Interval: time.Second,
	}); err != nil {
		f.Fatal(err)
	}
	for _, p := range sink.payloads {
		f.Add(p)
	}
	f.Add([]byte(checkpointMagic))
	f.Add([]byte{})
	// The same scenario at V = 40: every section present in a payload
	// of a few KB, which a mutation can reach across in one step.
	small := cfgs["uncontained-countermeasures"]
	small.V, small.I0, small.MaxInfected = 40, 4, 40
	sink = &memSink{}
	if err := RunCheckpointed(small, nil, &res, CheckpointOptions{
		Sink: sink, Interval: 30 * time.Second,
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(sink.payloads[len(sink.payloads)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		if re := EncodeCheckpoint(ck); !bytes.Equal(re, data) {
			t.Fatalf("accepted %d-byte input re-encodes to %d bytes differently",
				len(data), len(re))
		}
	})
}

// BenchmarkCheckpoint10M measures checkpoint encode throughput at
// internet scale: one snapshot+encode of a live 10M-host simulation
// state per iteration, into a reused buffer.
func BenchmarkCheckpoint10M(b *testing.B) {
	cfg := sim10MConfig()
	scratch := NewScratch()
	var res Result
	sink := &memSink{}
	// One checkpointed run to park the engine at a truncated 10M-host
	// state with a live pending set in the scratch arena.
	if err := RunCheckpointed(cfg, scratch, &res, CheckpointOptions{
		Sink: sink, Interval: des.MaxTime / 2, // final checkpoint only
	}); err != nil {
		b.Fatal(err)
	}
	e := &scratch.eng
	e.res = &res
	defer func() { e.res = nil }()
	var ck Checkpoint
	if err := e.snapshot(&ck); err != nil {
		b.Fatal(err)
	}
	buf := EncodeCheckpoint(&ck)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.snapshot(&ck); err != nil {
			b.Fatal(err)
		}
		buf = appendEncodeCheckpoint(buf[:0], &ck)
	}
}

// BenchmarkResume10M measures what resuming a Code-Red-scale checkpoint
// costs before the first event: DecodeCheckpoint of the payload, then
// ResumeCheckpointed on a recycled Scratch up to its first Stop poll,
// which halts it. It is the in-repo counterpart of the repository
// benchmark's restore_s on sim-10m, less the storage load.
func BenchmarkResume10M(b *testing.B) {
	cfg := sim10MConfig()
	scratch := NewScratch()
	var res Result
	sink := &memSink{}
	// Cut the run about halfway through its ~3.7M events, so the
	// checkpoint carries a half-grown epidemic and a live pending set.
	polls := 0
	err := RunCheckpointed(cfg, scratch, &res, CheckpointOptions{
		Sink: sink, Interval: des.MaxTime / 2, // no periodic cut: only the final one
		Stop: func() bool { polls++; return polls > 1_800_000 },
	})
	if !errors.Is(err, ErrStopRequested) {
		b.Fatalf("cut: err = %v, want ErrStopRequested", err)
	}
	payload := sink.payloads[len(sink.payloads)-1]
	sink.payloads = nil
	halt := CheckpointOptions{Stop: func() bool { return true }}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck, err := DecodeCheckpoint(payload)
		if err != nil {
			b.Fatal(err)
		}
		if err := ResumeCheckpointed(cfg, scratch, &res, ck, halt); !errors.Is(err, ErrStopRequested) {
			b.Fatalf("resume: err = %v, want ErrStopRequested", err)
		}
	}
}

// ResumeFromCheckpoint rebuilds the run at ck's cut and completes it
// without further checkpointing. The continuation is bit-identical to
// the uninterrupted run — across kernel backends: cfg.Kernel picks the
// backend to resume on regardless of which one wrote the checkpoint.
func ResumeFromCheckpoint(cfg Config, scratch *Scratch, res *Result, ck *Checkpoint) error {
	return ResumeCheckpointed(cfg, scratch, res, ck, CheckpointOptions{})
}

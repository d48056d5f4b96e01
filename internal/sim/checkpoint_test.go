package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/defense"
	"wormcontain/internal/des"
	"wormcontain/internal/rng"
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
	default:
		t.Fatalf("unknown checkpoint scenario %q", name)
		return Config{}
	}
}

func checkpointScenarioNames() []string {
	return []string{
		"enterprise-mlimit", "uncontained-countermeasures",
		"throttle-duty", "quarantine", "drain-mlimit",
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
				if r.stats.Writes != uint64(len(r.payloads)) || r.stats.Writes < 2 {
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
// configurations, identity mismatches, corrupted state and a sink
// without an interval.
func TestCheckpointRejects(t *testing.T) {
	base := func() Config { return checkpointScenario(t, "enterprise-mlimit", 1) }

	var res Result
	cfgBG := base()
	cfgBG.Background = &BackgroundConfig{Hosts: 10, ConnRate: 1, NewDestProb: 0.1}
	if err := RunCheckpointed(cfgBG, nil, &res, CheckpointOptions{}); err == nil {
		t.Error("background traffic accepted")
	}
	if err := RunCheckpointed(base(), nil, &res, CheckpointOptions{Sink: &memSink{}}); err == nil {
		t.Error("sink without interval accepted")
	}

	// A valid checkpoint against mismatched configurations.
	sink := &memSink{}
	if err := RunCheckpointed(base(), nil, &res, CheckpointOptions{
		Sink: sink, Interval: scenarioInterval("enterprise-mlimit"),
	}); err != nil {
		t.Fatal(err)
	}
	payload := sink.payloads[0]
	ck, err := DecodeCheckpoint(payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(c *Config)
	}{
		{"seed", func(c *Config) { c.Seed++ }},
		{"V", func(c *Config) { c.V++ }},
		{"scan rate", func(c *Config) { c.ScanRate *= 2 }},
		{"defense", func(c *Config) { c.Defense = defense.Null{} }},
		{"cluster", func(c *Config) { c.ClusterPrefix = nil }},
		{"record-paths", func(c *Config) { c.RecordPaths = !c.RecordPaths }},
	} {
		bad := base()
		tc.mutate(&bad)
		if err := ResumeFromCheckpoint(bad, nil, &res, ck); err == nil {
			t.Errorf("mismatched %s accepted on resume", tc.name)
		}
	}

	// Corrupted dynamic state must fail deep validation, not
	// mis-simulate.
	corrupt := func(name string, mutate func(c *Checkpoint)) {
		c, err := DecodeCheckpoint(payload)
		if err != nil {
			t.Fatal(err)
		}
		mutate(c)
		if err := ResumeFromCheckpoint(base(), nil, &res, c); err == nil {
			t.Errorf("corrupt checkpoint (%s) accepted", name)
		}
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

package sim

import (
	"runtime"
	"testing"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/des"
)

// TestKernelWheelGoldenParity runs every golden scenario — defenses,
// countermeasures, path/tree recording — on both kernel backends at
// seeds 1/7/1905 and requires byte-identical result fingerprints. With
// TestGoldenDeterminism pinning the heap backend to the committed
// goldens, parity here pins the wheel to them too.
// goldenFingerprint builds a FRESH golden config (stateful defenses
// like the M-limit must never be shared across runs), overrides the
// kernel, and returns the run's fingerprint.
func goldenFingerprint(t *testing.T, seed uint64, name string, kernel des.Kind,
	scratch *Scratch, res *Result) string {
	t.Helper()
	cfgs, err := goldenRunConfigs(seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg, ok := cfgs[name]
	if !ok {
		t.Fatalf("unknown golden scenario %q", name)
	}
	cfg.Kernel = kernel
	if res == nil {
		res = &Result{}
	}
	if err := RunInto(cfg, scratch, res); err != nil {
		t.Fatalf("%s seed %d %v: %v", name, seed, kernel, err)
	}
	return fingerprintResult(res)
}

// goldenScenarioNames returns the golden scenarios in deterministic
// order.
func goldenScenarioNames(t *testing.T) []string {
	t.Helper()
	return []string{"enterprise-mlimit", "uncontained-countermeasures"}
}

func TestKernelWheelGoldenParity(t *testing.T) {
	for _, seed := range []uint64{1, 7, 1905} {
		for _, name := range goldenScenarioNames(t) {
			h := goldenFingerprint(t, seed, name, des.KernelHeap, nil, nil)
			w := goldenFingerprint(t, seed, name, des.KernelWheel, nil, nil)
			if h != w {
				t.Errorf("%s seed %d: heap %s != wheel %s", name, seed, h, w)
			}
		}
	}
}

// TestKernelWheelScratchReuse flips one Scratch between backends across
// a shuffled seed schedule: kernel switches must not leak state through
// the shared kernel queues or population arena.
func TestKernelWheelScratchReuse(t *testing.T) {
	scratch := NewScratch()
	schedule := []struct {
		seed   uint64
		kernel des.Kind
	}{
		{1905, des.KernelWheel}, {1, des.KernelHeap}, {1905, des.KernelHeap},
		{7, des.KernelWheel}, {1905, des.KernelWheel}, {1, des.KernelWheel},
	}
	for step, sc := range schedule {
		for _, name := range goldenScenarioNames(t) {
			reused := goldenFingerprint(t, sc.seed, name, sc.kernel, scratch, nil)
			fresh := goldenFingerprint(t, sc.seed, name, des.KernelHeap, nil, nil)
			if reused != fresh {
				t.Errorf("step %d %s (%v): reused arena %s != fresh heap %s",
					step, name, sc.kernel, reused, fresh)
			}
		}
	}
}

// TestRunIntoReusesResult checks that RunInto into a recycled Result is
// bit-identical to a fresh RunWith, including Generations and Tree
// contents whose backing arrays are being reused.
func TestRunIntoReusesResult(t *testing.T) {
	scratch := NewScratch()
	var res Result
	for _, seed := range []uint64{1905, 1, 7, 1} {
		for _, name := range goldenScenarioNames(t) {
			r := goldenFingerprint(t, seed, name, des.KernelWheel, scratch, &res)
			f := goldenFingerprint(t, seed, name, des.KernelWheel, nil, nil)
			if r != f {
				t.Errorf("%s seed %d: RunInto %s != fresh %s", name, seed, r, f)
			}
		}
	}
}

// TestHostStateShardCounts cross-checks the packed bitsets against the
// per-shard active counters after a run that exercises every
// transition (infection, patching, immunization).
func TestHostStateShardCounts(t *testing.T) {
	scratch := NewScratch()
	cfg := Config{
		V: 200000, I0: 20, ScanRate: 30,
		ClusterPrefix: mustPrefix(t, "10.0.0.0/12"),
		PatchRate:     0.01, ImmunizeRate: 0.001,
		Horizon: 30 * time.Second, Seed: 7,
		Kernel: des.KernelWheel,
	}
	if _, err := RunWith(cfg, scratch); err != nil {
		t.Fatal(err)
	}
	st := &scratch.eng.state
	var total int32
	for shard, want := range st.shardActive {
		var got int32
		lo, hi := shard<<shardBits, (shard+1)<<shardBits
		if hi > st.n {
			hi = st.n
		}
		for i := lo; i < hi; i++ {
			if st.isInfected(i) {
				got++
			}
		}
		if got != want {
			t.Fatalf("shard %d: bitset count %d, shard counter %d", shard, got, want)
		}
		total += want
	}
	if int(total) != st.active {
		t.Fatalf("shard sum %d != active %d", total, st.active)
	}
	// The tri-state view must agree with the predicates.
	for _, i := range []int{0, 1, 63, 64, 65, 199999} {
		s := st.status(i)
		if st.isInfected(i) != (s == infected) ||
			st.isSusceptible(i) != (s == susceptible) {
			t.Fatalf("host %d: status %v disagrees with predicates", i, s)
		}
	}
}

func mustPrefix(t *testing.T, s string) *addr.Prefix {
	t.Helper()
	p, err := addr.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return &p
}

// sim10MConfig is the Code Red-scale benchmark scenario: 10M
// vulnerable hosts clustered in 10/8 and scanned within it (≈60%
// address density, the regime where the event rate peaks), 10k seeds,
// patching as the countermeasure, capped at 2M infections so a run is
// a bounded few million events.
func sim10MConfig() Config {
	pfx, _ := addr.ParsePrefix("10.0.0.0/8")
	routable, err := addr.NewRoutable([]addr.Prefix{pfx})
	if err != nil {
		panic(err)
	}
	return Config{
		V: 10_000_000, I0: 10_000, ScanRate: 10,
		Scanner:       routable,
		ClusterPrefix: &pfx,
		MaxInfected:   2_000_000,
		PatchRate:     0.02,
		Kernel:        des.KernelWheel,
		Seed:          1905,
	}
}

// BenchmarkSimRun10M is the internet-scale gate: one full V=10M run
// per iteration on the wheel kernel, with the Scratch arena and Result
// recycled — steady-state allocs/op must be 0 (make bench-allocs holds
// it).
func BenchmarkSimRun10M(b *testing.B) {
	cfg := sim10MConfig()
	scratch := NewScratch()
	var res Result
	// Two warm-up runs: the first sizes the arena; the second is the
	// first to start where every timed run starts, from a Scratch whose
	// truncated previous run left millions of events pending, which
	// Reset hands back to the wheel's chunk free list. Whatever that
	// path still grows, it grows before the timer starts.
	for i := 0; i < 2; i++ {
		if err := RunInto(cfg, scratch, &res); err != nil {
			b.Fatal(err)
		}
	}
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := RunInto(cfg, scratch, &res); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if !res.Truncated || res.TotalInfected < cfg.MaxInfected {
		b.Fatalf("unexpected outcome: %+v", res)
	}
}

// TestSim10MScenarioSmoke pins the benchmark scenario's shape at a
// reduced scale so a benchmark-only regression cannot hide: same
// densities, 100x smaller.
func TestSim10MScenarioSmoke(t *testing.T) {
	cfg := sim10MConfig()
	cfg.V /= 100
	cfg.I0 /= 100
	cfg.MaxInfected /= 100
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.TotalInfected < cfg.MaxInfected {
		t.Fatalf("scaled scenario did not saturate: %+v", res)
	}
}

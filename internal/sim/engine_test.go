package sim

import (
	"math"
	"testing"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/defense"
	"wormcontain/internal/rng"
)

// smallCfg returns a contained scenario small enough for fast DES runs:
// 2000 vulnerable hosts clustered in a /16 (p ≈ 0.03), M = 20 (λ ≈ 0.6).
func smallCfg(seed uint64) Config {
	pfx, err := addr.ParsePrefix("10.1.0.0/16")
	if err != nil {
		panic(err)
	}
	d, err := defense.NewMLimit(20, 365*24*time.Hour)
	if err != nil {
		panic(err)
	}
	// Scanner restricted to the cluster so the density is meaningful.
	routable, err := addr.NewRoutable([]addr.Prefix{pfx})
	if err != nil {
		panic(err)
	}
	return Config{
		V:             2000,
		I0:            5,
		ScanRate:      10,
		Scanner:       routable,
		Defense:       d,
		ClusterPrefix: &pfx,
		Seed:          seed,
	}
}

func TestRunValidation(t *testing.T) {
	bad := []Config{
		{V: 0, I0: 1, ScanRate: 1},
		{V: 10, I0: 0, ScanRate: 1},
		{V: 10, I0: 11, ScanRate: 1},
		{V: 10, I0: 1, ScanRate: 0},
		{V: 10, I0: 1, ScanRate: math.NaN()},
		{V: 10, I0: 1, ScanRate: 1, PatchRate: math.NaN()},
		{V: 10, I0: 1, ScanRate: 1, ImmunizeRate: math.NaN()},
		{V: 10, I0: 1, ScanRate: 1, Horizon: -time.Second},
		{V: 10, I0: 1, ScanRate: 1, MaxInfected: -1},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestRunContainedOutbreakDies(t *testing.T) {
	res, err := Run(smallCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Extinct {
		t.Error("subcritical outbreak should go extinct")
	}
	if res.Truncated {
		t.Error("run should complete naturally")
	}
	if res.TotalInfected < 5 {
		t.Errorf("total infected %d below I0", res.TotalInfected)
	}
	// Every infected host is eventually removed by the M-limit.
	if res.TotalRemoved != res.TotalInfected {
		t.Errorf("removed %d != infected %d at extinction", res.TotalRemoved, res.TotalInfected)
	}
}

func TestRunGenerationAccounting(t *testing.T) {
	res, err := Run(smallCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Generations) == 0 || res.Generations[0] != 5 {
		t.Fatalf("generation 0 = %v, want I0 = 5", res.Generations)
	}
	sum := 0
	for _, g := range res.Generations {
		if g < 0 {
			t.Fatal("negative generation count")
		}
		sum += g
	}
	if sum != res.TotalInfected {
		t.Errorf("generations sum %d != total infected %d", sum, res.TotalInfected)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	a, err := Run(smallCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalInfected != b.TotalInfected || a.TotalScans != b.TotalScans ||
		a.EndTime != b.EndTime {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
	c, err := Run(smallCfg(8))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalScans == c.TotalScans && a.EndTime == c.EndTime {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestRunScanBudgetRespected(t *testing.T) {
	// With the M-limit every infected host issues at most M+1 attempts
	// (the M distinct ones plus the removing attempt). Repeat scans to
	// seen destinations are free, so give a generous factor.
	cfg := smallCfg(3)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxAttempts := uint64(res.TotalInfected) * uint64(20+2) * 2
	if res.TotalScans > maxAttempts {
		t.Errorf("scans %d exceed budget bound %d", res.TotalScans, maxAttempts)
	}
	if res.Dropped != uint64(res.TotalRemoved) {
		t.Errorf("dropped %d != removals %d under M-limit", res.Dropped, res.TotalRemoved)
	}
}

func TestRunSamplePaths(t *testing.T) {
	cfg := smallCfg(4)
	cfg.RecordPaths = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.InfectedSeries == nil || res.RemovedSeries == nil || res.ActiveSeries == nil {
		t.Fatal("sample paths missing")
	}
	// Accumulated infected and removed are non-decreasing; active =
	// infected − removed at every step.
	horizon := res.EndTime
	const grid = 50
	prevInf, prevRem := 0.0, 0.0
	for i := 0; i <= grid; i++ {
		at := time.Duration(int64(horizon) * int64(i) / grid)
		inf := res.InfectedSeries.At(at)
		rem := res.RemovedSeries.At(at)
		act := res.ActiveSeries.At(at)
		if inf < prevInf || rem < prevRem {
			t.Fatalf("accumulated series decreased at %v", at)
		}
		if diff := inf - rem - act; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("active != infected - removed at %v: %v %v %v", at, inf, rem, act)
		}
		prevInf, prevRem = inf, rem
	}
	// Final values match the scalar result.
	if _, vs := res.InfectedSeries.Points(); int(vs[len(vs)-1]) != res.TotalInfected {
		t.Errorf("final infected series %v != %d", vs[len(vs)-1], res.TotalInfected)
	}
}

func TestRunHorizonStops(t *testing.T) {
	cfg := smallCfg(5)
	cfg.Horizon = time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.EndTime != time.Second {
		t.Errorf("end time %v, want the horizon", res.EndTime)
	}
}

func TestRunMaxInfectedTruncates(t *testing.T) {
	cfg := smallCfg(6)
	cfg.Defense = defense.Null{} // uncontained: would infect everyone
	cfg.MaxInfected = 50
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("run should be truncated")
	}
	if res.TotalInfected != 50 {
		t.Errorf("total infected %d, want exactly the cap", res.TotalInfected)
	}
}

func TestRunMaxEventsGuard(t *testing.T) {
	cfg := smallCfg(9)
	cfg.Defense = defense.Null{}
	cfg.maxEvents = 1000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("run should be truncated by the event guard")
	}
}

func TestRunNullDefenseSpreadsFurther(t *testing.T) {
	contained := smallCfg(10)
	containedRes, err := Run(contained)
	if err != nil {
		t.Fatal(err)
	}
	open := smallCfg(10)
	open.Defense = defense.Null{}
	open.Horizon = 30 * time.Second
	open.MaxInfected = 2000
	openRes, err := Run(open)
	if err != nil {
		t.Fatal(err)
	}
	if openRes.TotalInfected <= containedRes.TotalInfected {
		t.Errorf("no defense (%d) should spread beyond M-limit (%d)",
			openRes.TotalInfected, containedRes.TotalInfected)
	}
}

func TestRunThrottleDelaysScans(t *testing.T) {
	cfg := smallCfg(11)
	cfg.Defense = defense.NewWilliamsonThrottle()
	cfg.ScanRate = 50 // well above the 1/s throttle service rate
	cfg.Horizon = 20 * time.Second
	cfg.MaxInfected = 2000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delayed == 0 {
		t.Error("fast scanner through a throttle should see delays")
	}
	if res.Dropped != 0 {
		t.Errorf("throttle never drops, got %d", res.Dropped)
	}
}

func TestRunQuarantineResumesAfterRelease(t *testing.T) {
	// Certain detection with a short window: the host is quarantined on
	// its first scan, released, re-quarantined, etc. The run must not
	// deadlock and the host must never be counted as removed.
	cfg := smallCfg(12)
	q, err := defense.NewQuarantine(1, 100*time.Millisecond, rng.NewPCG64(99, 0))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Defense = q
	cfg.Horizon = 3 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRemoved != 0 {
		t.Errorf("quarantine removals = %d, want 0 (blocks expire)", res.TotalRemoved)
	}
	if res.Dropped == 0 {
		t.Error("certain detector should have dropped scans") // only an alarmed host's scans drop
	}
}

func TestRunInfectionTree(t *testing.T) {
	cfg := smallCfg(70)
	cfg.RecordTree = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One edge per non-seed infection.
	if len(res.Tree) != res.TotalInfected-cfg.I0 {
		t.Fatalf("tree edges = %d, want %d", len(res.Tree), res.TotalInfected-cfg.I0)
	}
	// Edges are chronological, children unique, and each child's
	// generation is its parent's + 1 (checked via depth-from-seed).
	depth := make(map[int]int)
	for i := 0; i < cfg.I0; i++ {
		depth[i] = 0
	}
	var prev time.Duration
	seen := make(map[int]bool)
	for _, e := range res.Tree {
		if e.At < prev {
			t.Fatal("edges out of order")
		}
		prev = e.At
		if seen[e.Child] {
			t.Fatalf("host %d infected twice", e.Child)
		}
		seen[e.Child] = true
		d, ok := depth[e.Parent]
		if !ok {
			t.Fatalf("edge from not-yet-infected parent %d", e.Parent)
		}
		depth[e.Child] = d + 1
	}
	// Depth histogram must equal the generation counts.
	genCount := make([]int, len(res.Generations))
	for _, d := range depth {
		if d < len(genCount) {
			genCount[d]++
		}
	}
	for g := range res.Generations {
		if genCount[g] != res.Generations[g] {
			t.Errorf("generation %d: tree %d vs counter %d", g, genCount[g], res.Generations[g])
		}
	}
}

func TestRunTreeDisabledByDefault(t *testing.T) {
	res, err := Run(smallCfg(71))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tree != nil {
		t.Error("tree recorded without RecordTree")
	}
}

package detect

import (
	"math"
	"strings"
	"testing"

	"wormcontain/internal/rng"
)

// epidemicObservations synthesizes an exponentially growing signal with
// multiplicative noise on top of a flat background, the monitoring view
// of an early-phase outbreak.
func epidemicObservations(n int, background, i0, rate, noise float64, seed uint64) []Observation {
	src := rng.NewPCG64(seed, 0)
	out := make([]Observation, n)
	infected := i0
	for i := range out {
		jitter := 1 + noise*(2*src.Float64()-1)
		out[i] = Observation{
			Time:  float64(i),
			Count: (background + infected) * jitter,
		}
		infected *= 1 + rate
	}
	return out
}

// flatObservations synthesizes pure background noise.
func flatObservations(n int, background, noise float64, seed uint64) []Observation {
	src := rng.NewPCG64(seed, 0)
	out := make([]Observation, n)
	for i := range out {
		jitter := 1 + noise*(2*src.Float64()-1)
		out[i] = Observation{Time: float64(i), Count: background * jitter}
	}
	return out
}

func feedUntilAlarm(d Detector, obs []Observation) (int, bool) {
	for i, o := range obs {
		if d.Observe(o) {
			return i, true
		}
	}
	return 0, false
}

func TestThresholdDetectorValidation(t *testing.T) {
	for _, bad := range []float64{0, -1, math.NaN()} {
		if _, err := NewThresholdDetector(bad); err == nil {
			t.Errorf("expected error for threshold %v", bad)
		}
	}
}

func TestThresholdDetectorFiresAtThreshold(t *testing.T) {
	d, err := NewThresholdDetector(100)
	if err != nil {
		t.Fatal(err)
	}
	if d.Observe(Observation{Time: 1, Count: 99}) {
		t.Fatal("fired below threshold")
	}
	if !d.Observe(Observation{Time: 2, Count: 100}) {
		t.Fatal("did not fire at threshold")
	}
	at, ok := d.at, d.alarmed
	if !ok || at != 2 {
		t.Errorf("alarm time = (%v, %v)", at, ok)
	}
	// Latched: stays alarmed on low counts.
	if !d.Observe(Observation{Time: 3, Count: 0}) {
		t.Error("alarm must latch")
	}
}

func TestThresholdDetectorNoAlarmTime(t *testing.T) {
	d, _ := NewThresholdDetector(100)
	if d.alarmed {
		t.Error("alarmed before any observation")
	}
}

func TestKalmanValidation(t *testing.T) {
	if _, err := NewKalmanTrendDetector(-0.1, 3); err == nil {
		t.Error("expected error for negative rate")
	}
	if _, err := NewKalmanTrendDetector(0.1, 0); err == nil {
		t.Error("expected error for zero consecutive")
	}
}

func TestKalmanDetectsEpidemicTrend(t *testing.T) {
	d, err := NewKalmanTrendDetector(0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Outbreak: background 500 scans/interval, 10 infected growing 15%
	// per interval, 10% observation noise.
	obs := epidemicObservations(120, 500, 10, 0.15, 0.10, 1)
	idx, fired := feedUntilAlarm(d, obs)
	if !fired {
		t.Fatal("kalman detector missed an exponentially growing worm")
	}
	// It must fire while the infected population is still a small
	// multiple of its start (early phase), but not instantly on noise.
	if idx < 5 {
		t.Errorf("fired suspiciously early at interval %d", idx)
	}
	if idx > 100 {
		t.Errorf("fired too late at interval %d", idx)
	}
}

func TestKalmanQuietOnFlatTraffic(t *testing.T) {
	d, err := NewKalmanTrendDetector(0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	obs := flatObservations(500, 500, 0.10, 2)
	if _, fired := feedUntilAlarm(d, obs); fired {
		t.Error("false alarm on trendless background traffic")
	}
}

func TestKalmanRateEstimateTracksGrowth(t *testing.T) {
	d, err := NewKalmanTrendDetector(1000, 1000000) // never alarms
	if err != nil {
		t.Fatal(err)
	}
	// Noise-free pure exponential at 10% per interval with no
	// background: measured growth factors are exactly 0.10.
	obs := epidemicObservations(200, 0, 10, 0.10, 0, 3)
	for _, o := range obs {
		d.Observe(o)
	}
	if math.Abs(d.rate-0.10) > 0.02 {
		t.Errorf("rate estimate %v, want ≈0.10", d.rate)
	}
}

func TestKalmanStreakResets(t *testing.T) {
	d, err := NewKalmanTrendDetector(0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Alternating up/down intervals: the smoothed rate estimate drops
	// below MinRate on every crash, so the streak never reaches 3.
	for i := 0; i < 20; i++ {
		count := 100.0
		if i%2 == 1 {
			count = 125
		}
		if d.Observe(Observation{Time: float64(i), Count: count}) {
			t.Fatalf("fired at %d despite oscillating (trendless) traffic", i)
		}
	}
}

func TestEWMAValidation(t *testing.T) {
	if _, err := NewEWMADetector(0, 3); err == nil {
		t.Error("expected error for alpha 0")
	}
	if _, err := NewEWMADetector(1.5, 3); err == nil {
		t.Error("expected error for alpha > 1")
	}
	if _, err := NewEWMADetector(0.1, 0); err == nil {
		t.Error("expected error for sigmas 0")
	}
}

func TestEWMADetectsBurst(t *testing.T) {
	d, err := NewEWMADetector(0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Stable baseline, then a fast worm makes the count explode.
	for i := 0; i < 50; i++ {
		if d.Observe(Observation{Time: float64(i), Count: 100}) {
			t.Fatal("false alarm on constant traffic")
		}
	}
	if !d.Observe(Observation{Time: 50, Count: 100000}) {
		t.Fatal("missed a 1000x burst")
	}
}

func TestEWMAMissesSlowWorm(t *testing.T) {
	// The library-level demonstration of the paper's critique: a worm
	// growing 1% per interval rides the adaptive baseline and is never
	// flagged by the rate detector.
	d, err := NewEWMADetector(0.3, 4)
	if err != nil {
		t.Fatal(err)
	}
	count := 100.0
	for i := 0; i < 300; i++ {
		if d.Observe(Observation{Time: float64(i), Count: count}) {
			t.Fatalf("ewma caught the slow worm at %d; expected it to slip under", i)
		}
		count *= 1.01
	}
}

func TestDetectorNames(t *testing.T) {
	th, _ := NewThresholdDetector(108)
	ka, _ := NewKalmanTrendDetector(0.02, 5)
	ew, _ := NewEWMADetector(0.2, 4)
	for _, c := range []struct {
		d    Detector
		want string
	}{
		{th, "threshold"},
		{ka, "kalman-trend"},
		{ew, "ewma"},
	} {
		if !strings.Contains(c.d.Name(), c.want) {
			t.Errorf("name %q missing %q", c.d.Name(), c.want)
		}
	}
}

package experiments

import (
	"fmt"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/core"
	"wormcontain/internal/detect"
	"wormcontain/internal/parallel"
	"wormcontain/internal/rng"
	"wormcontain/internal/sim"
)

func init() {
	register("ablation-detection", runAblationDetection)
}

// runAblationDetection (A4) reproduces the paper's Section III-C
// comparison with detection systems: "let us compare this result to
// existing worm detection systems, which provide detection when
// approximately 0.03% (Code Red) ... of the susceptible hosts are
// infected. With our scheme, with very high probability the infection
// will not be allowed to spread that widely."
//
// It runs an *uncontained* Code Red outbreak, feeds the monitoring
// signal (infected population plus noisy background scans) to the three
// detectors of package detect, and reports how many hosts are already
// infected when each detector fires — against the M-limit, which holds
// the 99th-percentile outbreak below that footprint with no detection
// at all.
func runAblationDetection(opts Options) (*Result, error) {
	opts = opts.normalize()
	maxInfected := 2000
	if opts.Quick {
		maxInfected = 800
	}

	// Uncontained Code Red at 6 scans/s, recorded as a path. The
	// detection infrastructure taps the actual delivered-scan stream
	// via the simulator's ScanObserver and sees the fraction of the
	// address space its monitors cover.
	const monitorCoverage = 1.0 / 256 // monitors watch one /8 worth of darkness
	scansPerMinute := make(map[int]int)
	cfg := sim.Config{
		V:           360000,
		I0:          10,
		ScanRate:    6,
		MaxInfected: maxInfected,
		Seed:        opts.Seed,
		Kernel:      opts.kernel,
		RecordPaths: true,
		ScanObserver: func(_, dst addr.IP, at time.Duration) {
			// The monitor sees scans landing in its monitored block.
			if uint32(dst) < uint32(float64(1<<32)*monitorCoverage) {
				scansPerMinute[int(at.Minutes())]++
			}
		},
	}
	out, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}

	// Monitoring signal: one observation per simulated minute — the
	// monitored scan count plus noisy benign background scans.
	const backgroundScans = 200
	noise := rng.NewPCG64(opts.Seed^0xdec7, 0)
	minutes := int(out.EndTime.Minutes()) + 1
	obs := make([]detect.Observation, 0, minutes)
	infectedAt := make([]float64, 0, minutes)
	for m := 0; m < minutes; m++ {
		at := time.Duration(m) * time.Minute
		infected := out.InfectedSeries.At(at)
		jitter := 1 + 0.1*(2*noise.Float64()-1)
		obs = append(obs, detect.Observation{
			Time:  float64(m),
			Count: backgroundScans*jitter + float64(scansPerMinute[m]),
		})
		infectedAt = append(infectedAt, infected)
	}

	// The three detectors. The threshold detector is calibrated to the
	// deployed systems' 0.03% of V (= 108 hosts): the monitored scan
	// volume that many infected hosts generate (6 scans/s · 60 s ·
	// coverage each) on top of the background.
	const v = 360000.0
	thresholdCount := backgroundScans + 0.0003*v*(6*60*monitorCoverage)
	th, err := detect.NewThresholdDetector(thresholdCount)
	if err != nil {
		return nil, err
	}
	ka, err := detect.NewKalmanTrendDetector(0.01, 5)
	if err != nil {
		return nil, err
	}
	ew, err := detect.NewEWMADetector(0.2, 4)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:    "ablation-detection",
		Title: "A4: detection-system footprints vs the detection-free M-limit",
		Series: []Series{{
			Label: "uncontained infected hosts by minute",
			X:     irange(len(infectedAt) - 1),
			Y:     infectedAt,
		}},
	}
	// Each detector replays the monitoring signal independently; they
	// are stateful but disjoint, so one worker drives each. obs and
	// infectedAt are shared read-only.
	detectors := []detect.Detector{th, ka, ew}
	detNotes, err := parallel.Map(len(detectors), opts.Workers, func(di int) (string, error) {
		d := detectors[di]
		for i, o := range obs {
			if d.Observe(o) {
				return fmt.Sprintf(
					"%s: alarm at minute %d with %d hosts infected (%.4f%% of V)",
					d.Name(), i, int(infectedAt[i]), 100*infectedAt[i]/v), nil
			}
		}
		return fmt.Sprintf(
			"%s: never fired within the %d-minute horizon (%d infected at end)",
			d.Name(), minutes-1, int(infectedAt[len(infectedAt)-1])), nil
	})
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, detNotes...)

	// The M-limit comparison: no detection, yet the 99th-percentile
	// outbreak stays below the detectors' footprints.
	w := core.CodeRed(10000, 10)
	bt, err := w.TotalInfections()
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"M-limit (M=10000), no detection needed: q99 outbreak %d hosts (%.4f%% of V); "+
			"P{I <= 108 (=0.03%% of V)} = %.4f",
		bt.Quantile(0.99), 100*float64(bt.Quantile(0.99))/v, bt.CDF(108)))
	res.Notes = append(res.Notes,
		"paper's point: detection systems act only after ≈0.03% of V is infected; "+
			"the containment scheme keeps most outbreaks below that footprint with no detector in the loop")
	return res, nil
}

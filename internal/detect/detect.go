// Package detect implements the early worm *detection* systems the
// paper positions its containment scheme against (Section II): the
// Kalman-filter trend detector of Zou, Gong, Gao and Towsley [20] and a
// DIB:S/TRAFEN-style infection-fraction threshold detector [10/23].
//
// The paper's comparison is quantitative: those systems raise an alarm
// once roughly 0.03 % (Code Red) or 0.005 % (Slammer) of the vulnerable
// population is infected, whereas the M-limit keeps the *total* outbreak
// below those levels without any detection at all. The
// ablation-detection experiment reproduces that comparison; this package
// supplies the detectors.
package detect

import (
	"fmt"
	"math"
)

// Observation is one monitoring interval's worth of telemetry from the
// detection infrastructure: how many (unique) illegitimate scans or
// infection signals the monitors saw in the interval.
type Observation struct {
	// Time is the interval's end, in seconds from the outbreak start.
	Time float64
	// Count is the monitored signal for the interval, e.g. the number
	// of distinct sources observed scanning, a proxy for the infected
	// population visible to the monitors.
	Count float64
}

// Detector consumes a stream of observations and reports when it first
// considers a worm present.
type Detector interface {
	// Observe feeds one interval and reports whether the detector is
	// (now) in the alarmed state. Once alarmed, a detector stays
	// alarmed.
	Observe(o Observation) bool

	// Name identifies the detector in experiment output.
	Name() string
}

// ThresholdDetector is the DIB:S-style detector: it alarms when the
// monitored count reaches a fixed threshold — the paper quotes deployed
// systems detecting Code Red "when there are only 0.03% vulnerable hosts
// infected", i.e. at a fixed infected-population footprint.
type ThresholdDetector struct {
	// Threshold is the count at which the alarm fires.
	Threshold float64

	alarmed bool
	at      float64
}

var _ Detector = (*ThresholdDetector)(nil)

// NewThresholdDetector validates the threshold.
func NewThresholdDetector(threshold float64) (*ThresholdDetector, error) {
	if threshold <= 0 || math.IsNaN(threshold) {
		return nil, fmt.Errorf("detect: threshold %v, must be > 0", threshold)
	}
	return &ThresholdDetector{Threshold: threshold}, nil
}

// Observe implements Detector.
func (d *ThresholdDetector) Observe(o Observation) bool {
	if !d.alarmed && o.Count >= d.Threshold {
		d.alarmed = true
		d.at = o.Time
	}
	return d.alarmed
}

// Name implements Detector.
func (d *ThresholdDetector) Name() string {
	return fmt.Sprintf("threshold(%g)", d.Threshold)
}

// KalmanTrendDetector is the detector of Zou et al. [20]: during the
// early phase an epidemic grows as I(t+Δ) ≈ (1 + rΔ)·I(t) with a
// positive exponential rate r, while background scan noise has no
// consistent multiplicative trend. The detector runs a scalar Kalman
// filter on the per-interval growth factor and alarms when the estimate
// of r stays positive (above MinRate) for ConsecutiveNeeded intervals —
// "detect the presence of a worm by detecting the trend, not the rate,
// of the observed illegitimate scan traffic".
type KalmanTrendDetector struct {
	// MinRate is the growth-rate estimate (per interval) the filter
	// must exceed to count an interval as trending.
	MinRate float64
	// ConsecutiveNeeded is how many consecutive trending intervals
	// trigger the alarm.
	ConsecutiveNeeded int
	// ProcessVar and MeasurementVar are the filter's noise parameters.
	ProcessVar, MeasurementVar float64

	rate     float64 // state estimate: per-interval growth rate r
	variance float64 // estimate variance
	prev     *Observation
	streak   int
	alarmed  bool
	at       float64
}

var _ Detector = (*KalmanTrendDetector)(nil)

// NewKalmanTrendDetector builds the detector with sane defaults for
// zero-valued noise parameters.
func NewKalmanTrendDetector(minRate float64, consecutive int) (*KalmanTrendDetector, error) {
	if minRate < 0 || math.IsNaN(minRate) {
		return nil, fmt.Errorf("detect: min rate %v, must be >= 0", minRate)
	}
	if consecutive < 1 {
		return nil, fmt.Errorf("detect: consecutive intervals %d, must be >= 1", consecutive)
	}
	return &KalmanTrendDetector{
		MinRate:           minRate,
		ConsecutiveNeeded: consecutive,
		ProcessVar:        1e-4,
		MeasurementVar:    0.25,
		variance:          1, // diffuse prior on the growth rate
	}, nil
}

// Observe implements Detector. Each interval's measurement is the
// relative growth (count − prev) / max(prev, 1); the Kalman filter
// smooths it into a rate estimate.
func (d *KalmanTrendDetector) Observe(o Observation) bool {
	if d.alarmed {
		return true
	}
	if d.prev == nil {
		prev := o
		d.prev = &prev
		return false
	}
	denom := d.prev.Count
	if denom < 1 {
		denom = 1
	}
	measured := (o.Count - d.prev.Count) / denom
	*d.prev = o

	// Predict: random-walk model for the rate.
	d.variance += d.ProcessVar
	// Update.
	gain := d.variance / (d.variance + d.MeasurementVar)
	d.rate += gain * (measured - d.rate)
	d.variance *= 1 - gain

	if d.rate > d.MinRate {
		d.streak++
		if d.streak >= d.ConsecutiveNeeded {
			d.alarmed = true
			d.at = o.Time
		}
	} else {
		d.streak = 0
	}
	return d.alarmed
}

// Name implements Detector.
func (d *KalmanTrendDetector) Name() string {
	return fmt.Sprintf("kalman-trend(r>%g x%d)", d.MinRate, d.ConsecutiveNeeded)
}

// EWMADetector is a simple exponentially-weighted moving-average anomaly
// detector over the raw counts: it alarms when the count exceeds the
// EWMA baseline by Sigmas standard deviations. It is the weakest of the
// three (rate-based, so slow worms slip under it), included as the naive
// baseline the paper's Section II critiques.
type EWMADetector struct {
	// Alpha is the EWMA smoothing weight in (0, 1].
	Alpha float64
	// Sigmas is the alarm threshold in baseline standard deviations.
	Sigmas float64

	mean     float64
	variance float64
	warmed   bool
	alarmed  bool
	at       float64
}

var _ Detector = (*EWMADetector)(nil)

// NewEWMADetector validates the parameters.
func NewEWMADetector(alpha, sigmas float64) (*EWMADetector, error) {
	if alpha <= 0 || alpha > 1 || math.IsNaN(alpha) {
		return nil, fmt.Errorf("detect: ewma alpha %v, must be in (0, 1]", alpha)
	}
	if sigmas <= 0 || math.IsNaN(sigmas) {
		return nil, fmt.Errorf("detect: ewma sigmas %v, must be > 0", sigmas)
	}
	return &EWMADetector{Alpha: alpha, Sigmas: sigmas}, nil
}

// Observe implements Detector.
func (d *EWMADetector) Observe(o Observation) bool {
	if d.alarmed {
		return true
	}
	if !d.warmed {
		d.mean = o.Count
		d.variance = 1
		d.warmed = true
		return false
	}
	std := math.Sqrt(d.variance)
	if o.Count > d.mean+d.Sigmas*std {
		d.alarmed = true
		d.at = o.Time
		return true
	}
	// Update the baseline with the (non-anomalous) observation.
	diff := o.Count - d.mean
	d.mean += d.Alpha * diff
	d.variance = (1 - d.Alpha) * (d.variance + d.Alpha*diff*diff)
	return false
}

// Name implements Detector.
func (d *EWMADetector) Name() string {
	return fmt.Sprintf("ewma(a=%g,%gσ)", d.Alpha, d.Sigmas)
}

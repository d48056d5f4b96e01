package defense

import (
	"fmt"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/rng"
)

// Quarantine is Zou et al.'s dynamic quarantine [21], the second
// baseline the paper discusses: an anomaly detector watches each host's
// scans; when it raises an alarm the host is confined for a short,
// fixed quarantine window and then automatically released. The detector
// is assumed noisy, so both infected hosts (with probability
// DetectPerScan per scan) and clean hosts (modelled by the caller
// invoking OnScan for background traffic with the same mechanics) get
// quarantined; the scheme "can slow down the worm spread but cannot
// guarantee containment".
type Quarantine struct {
	detectPerScan float64
	window        time.Duration
	src           rng.Source
	until         map[addr.IP]time.Duration
	alarms        int
}

var _ Defense = (*Quarantine)(nil)

// NewQuarantine builds the defense. detectPerScan is the probability
// that any single scan triggers the host's alarm; window is the
// confinement duration. src drives the detector's randomness and must be
// dedicated to this defense for reproducibility.
func NewQuarantine(detectPerScan float64, window time.Duration, src rng.Source) (*Quarantine, error) {
	if detectPerScan < 0 || detectPerScan > 1 {
		return nil, fmt.Errorf("defense: quarantine detect probability %v outside [0, 1]", detectPerScan)
	}
	if window <= 0 {
		return nil, fmt.Errorf("defense: quarantine window %v, must be > 0", window)
	}
	if src == nil {
		return nil, fmt.Errorf("defense: quarantine needs a random source")
	}
	return &Quarantine{
		detectPerScan: detectPerScan,
		window:        window,
		src:           src,
		until:         make(map[addr.IP]time.Duration),
	}, nil
}

// OnScan drops scans from quarantined hosts and otherwise flips the
// detector coin: on alarm the scan is dropped and the host confined
// until t+window.
func (q *Quarantine) OnScan(src, _ addr.IP, t time.Duration) Verdict {
	if q.Blocked(src, t) {
		return Verdict{Action: Drop}
	}
	if q.detectPerScan > 0 && q.src.Float64() < q.detectPerScan {
		q.until[src] = t + q.window
		q.alarms++
		return Verdict{Action: Drop}
	}
	return Verdict{Action: Permit}
}

// Blocked reports whether the host is inside its quarantine window.
func (q *Quarantine) Blocked(src addr.IP, t time.Duration) bool {
	until, ok := q.until[src]
	return ok && t < until
}

// ReleaseAt reports when src's current quarantine window expires; ok is
// false when the host is not quarantined at t. It satisfies the
// simulator's Releaser capability, which distinguishes expiring blocks
// (quarantine) from permanent removals (the M-limit).
func (q *Quarantine) ReleaseAt(src addr.IP, t time.Duration) (time.Duration, bool) {
	until, ok := q.until[src]
	if !ok || t >= until {
		return 0, false
	}
	return until, true
}

// Name implements Defense.
func (q *Quarantine) Name() string {
	return fmt.Sprintf("quarantine(p=%g,window=%v)", q.detectPerScan, q.window)
}

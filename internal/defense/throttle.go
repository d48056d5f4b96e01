package defense

import (
	"fmt"
	"time"

	"wormcontain/internal/addr"
)

// Throttle is Williamson's virus throttle [17], the classic rate-based
// countermeasure the paper contrasts with its total-scan limit: each
// host keeps a small working set of recently contacted destinations;
// connections to working-set members pass freely, while connections to
// *new* destinations drain from a delay queue at a fixed rate (the
// canonical configuration is one new destination per second with a
// working set of five).
//
// The throttle slows fast scanners to the service rate but — as the
// paper argues — never stops a slow worm that scans below that rate.
type Throttle struct {
	workingSet int
	rate       float64 // new destinations per second
	perHost    map[addr.IP]*throttleState
}

type throttleState struct {
	recent []addr.IP // LRU working set, most recent last
	// nextFree is the earliest virtual time the next queued novel
	// destination can be serviced.
	nextFree time.Duration
}

var _ Defense = (*Throttle)(nil)

// newThrottle builds a throttle with the given working-set size and
// service rate (new destinations per second).
func newThrottle(workingSet int, ratePerSec float64) (*Throttle, error) {
	if workingSet < 1 {
		return nil, fmt.Errorf("defense: throttle working set %d, must be >= 1", workingSet)
	}
	if ratePerSec <= 0 {
		return nil, fmt.Errorf("defense: throttle rate %v, must be > 0", ratePerSec)
	}
	return &Throttle{
		workingSet: workingSet,
		rate:       ratePerSec,
		perHost:    make(map[addr.IP]*throttleState),
	}, nil
}

// NewWilliamsonThrottle returns the canonical configuration from [17]:
// working set 5, one new destination per second.
func NewWilliamsonThrottle() *Throttle {
	t, err := newThrottle(5, 1)
	if err != nil {
		// Constants are valid by construction.
		panic(err)
	}
	return t
}

// OnScan permits working-set destinations immediately and schedules
// novel destinations through the per-host delay queue.
func (th *Throttle) OnScan(src, dst addr.IP, t time.Duration) Verdict {
	st := th.perHost[src]
	if st == nil {
		st = &throttleState{}
		th.perHost[src] = st
	}
	// Working-set hit: free.
	for i, d := range st.recent {
		if d == dst {
			// Move to most-recent position.
			copy(st.recent[i:], st.recent[i+1:])
			st.recent[len(st.recent)-1] = dst
			return Verdict{Action: Permit}
		}
	}
	// Novel destination: goes through the delay queue.
	interval := time.Duration(float64(time.Second) / th.rate)
	var delay time.Duration
	if st.nextFree <= t {
		// Queue empty: service immediately, next slot one interval out.
		st.nextFree = t + interval
	} else {
		delay = st.nextFree - t
		st.nextFree += interval
	}
	// Admit to the working set (evicting the least recent).
	st.recent = append(st.recent, dst)
	if len(st.recent) > th.workingSet {
		st.recent = st.recent[1:]
	}
	if delay == 0 {
		return Verdict{Action: Permit}
	}
	return Verdict{Action: Delay, Delay: delay}
}

// Blocked always reports false: the throttle slows hosts but never
// removes them, the limitation the paper's scheme addresses.
func (th *Throttle) Blocked(_ addr.IP, _ time.Duration) bool { return false }

// Name implements Defense.
func (th *Throttle) Name() string {
	return fmt.Sprintf("throttle(ws=%d,rate=%g/s)", th.workingSet, th.rate)
}

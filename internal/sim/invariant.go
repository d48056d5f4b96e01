package sim

import (
	"fmt"
	"math/bits"
	"time"
)

// maxViolations bounds the checker's memory: after this many recorded
// violations further ones only increment the total count.
const maxViolations = 32

// InvariantChecker audits a run as it executes. It watches the event
// log (monotone clock, no scan executed by a removed host) and, at
// every checkpoint cut and at the end of the run, cross-checks the
// engine's counters against its packed bitsets: active infections equal
// TotalInfected−TotalRemoved, the removed bitset's population equals
// TotalRemoved+Immunized, infected and removed are disjoint, the shard
// counters sum to the active count, and infected+removed never exceed V.
//
// The checker consumes no randomness and schedules no events, so
// enabling it never changes a trajectory; violations accumulate and are
// surfaced as one error when the run finishes (finishRun calls err).
// A checker instance belongs to one run at a time; the zero value is
// ready to attach to Config.Invariants.
type InvariantChecker struct {
	last       time.Duration
	observed   bool
	cuts       int
	total      int
	violations []string
}

// err returns nil when no invariant was violated, otherwise one error
// summarizing every recorded violation.
func (ic *InvariantChecker) err() error {
	if ic.total == 0 {
		return nil
	}
	return fmt.Errorf("sim: %d invariant violation(s), first: %s",
		ic.total, ic.violations[0])
}

// violate records one violation.
func (ic *InvariantChecker) violate(format string, args ...any) {
	ic.total++
	if len(ic.violations) < maxViolations {
		ic.violations = append(ic.violations, fmt.Sprintf(format, args...))
	}
}

// observeEvent audits the event clock: virtual time never regresses.
func (ic *InvariantChecker) observeEvent(now time.Duration) {
	if ic.observed && now < ic.last {
		ic.violate("clock regressed %v -> %v", ic.last, now)
	}
	ic.last = now
	ic.observed = true
}

// observeScan audits a scan the engine is about to execute. The
// engine's own guard reads the infected bit; the audit independently
// reads the removed bit, so a host that is wrongly in both states — the
// failure the guard cannot see — is caught the moment it scans.
func (ic *InvariantChecker) observeScan(e *engine, i int) {
	if e.state.removed[i>>6]>>(uint(i)&63)&1 != 0 {
		ic.violate("removed host %d executed a scan at %v", i, e.sim.Now())
	}
}

// checkCut is the full counter/bitset consistency audit, run at every
// checkpoint cut and once more when the run finishes.
func (ic *InvariantChecker) checkCut(e *engine) {
	ic.cuts++
	h := &e.state
	res := e.res
	popInf, popRem := 0, 0
	for w := range h.infected {
		inf, rem := h.infected[w], h.removed[w]
		popInf += bits.OnesCount64(inf)
		popRem += bits.OnesCount64(rem)
		if inf&rem != 0 {
			ic.violate("word %d: host(s) both infected and removed", w)
		}
	}
	if popInf != h.active {
		ic.violate("active count %d != infected bitset population %d", h.active, popInf)
	}
	shardSum := 0
	for _, c := range h.shardActive {
		shardSum += int(c)
	}
	if shardSum != h.active {
		ic.violate("shard counters sum to %d, active count is %d", shardSum, h.active)
	}
	if popInf+popRem > e.cfg.V {
		ic.violate("infected %d + removed %d exceeds population %d", popInf, popRem, e.cfg.V)
	}
	if res != nil {
		if want := res.TotalInfected - res.TotalRemoved; popInf != want {
			ic.violate("infected bitset %d != TotalInfected %d - TotalRemoved %d",
				popInf, res.TotalInfected, res.TotalRemoved)
		}
		if want := res.TotalRemoved + res.Immunized; popRem != want {
			ic.violate("removed bitset %d != TotalRemoved %d + Immunized %d",
				popRem, res.TotalRemoved, res.Immunized)
		}
		if res.TotalInfected+res.Immunized > e.cfg.V {
			ic.violate("TotalInfected %d + Immunized %d exceeds population %d",
				res.TotalInfected, res.Immunized, e.cfg.V)
		}
	}
	if now := e.sim.Now(); ic.observed && now < ic.last {
		ic.violate("cut clock %v behind last event %v", now, ic.last)
	}
}

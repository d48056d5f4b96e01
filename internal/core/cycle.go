package core

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// CyclePlanner implements the containment-cycle learning process of
// Section IV: "In practice, the containment cycle would be obtained
// through a learning process. ... We can then increase (reduce) the
// duration of the containment cycle depending on the observed activity
// of scans by correctly operating hosts."
//
// The planner consumes the observed per-host rates of *new distinct
// destinations per hour* from clean traffic (e.g. the LBL-CONN-7 trace
// or the synthetic equivalent in package trace) and recommends the
// longest cycle for which at most a small tolerated fraction of normal
// hosts would reach the fraction-f early-check threshold before the
// cycle ends. Longer cycles are operationally better (fewer heavy-duty
// checks, better slow-worm coverage), so this too is a maximization.
type CyclePlanner struct {
	// M is the scan limit the cycle must be compatible with.
	M int

	// CheckFraction is the early-check fraction f; a normal host should
	// not accumulate f·M distinct destinations within one cycle.
	CheckFraction float64

	// Tolerance is the acceptable fraction of normal hosts allowed to
	// cross the check threshold per cycle (false-alarm budget), e.g.
	// 0.01 for 1 %.
	Tolerance float64
}

// validate reports whether the planner parameters are usable.
func (c CyclePlanner) validate() error {
	switch {
	case c.M < 1:
		return fmt.Errorf("core: planner M = %d, must be >= 1", c.M)
	case c.CheckFraction <= 0 || c.CheckFraction > 1:
		return fmt.Errorf("core: planner check fraction %v, must be in (0, 1]", c.CheckFraction)
	case c.Tolerance < 0 || c.Tolerance >= 1:
		return fmt.Errorf("core: planner tolerance %v, must be in [0, 1)", c.Tolerance)
	}
	return nil
}

// Recommend returns the longest containment cycle such that, if every
// host kept accumulating new distinct destinations at its observed rate,
// at most Tolerance of the hosts would reach f·M before the cycle ends.
// ratesPerHour holds one non-negative entry per observed host: its
// average new-distinct-destinations per hour.
//
// The result is floored at minCycle and capped at maxCycle, the
// operational bounds (the paper suggests "weeks or even months").
func (c CyclePlanner) Recommend(ratesPerHour []float64, minCycle, maxCycle time.Duration) (time.Duration, error) {
	if err := c.validate(); err != nil {
		return 0, err
	}
	if len(ratesPerHour) == 0 {
		return 0, fmt.Errorf("core: planner needs at least one observed host rate")
	}
	if minCycle <= 0 || maxCycle < minCycle {
		return 0, fmt.Errorf("core: planner bounds min=%v max=%v invalid", minCycle, maxCycle)
	}
	for _, r := range ratesPerHour {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return 0, fmt.Errorf("core: planner rate %v invalid", r)
		}
	}

	// The budget a normal host may consume per cycle.
	budget := c.CheckFraction * float64(c.M)

	// Find the (1 − Tolerance) upper quantile of rates; the cycle is
	// sized so that a host at that rate exactly exhausts the budget.
	sorted := append([]float64(nil), ratesPerHour...)
	sort.Float64s(sorted)
	idx := int(math.Ceil((1-c.Tolerance)*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	q := sorted[idx]

	if q == 0 {
		// Even the busiest tolerated host contacts nothing new: any
		// cycle works; choose the maximum.
		return maxCycle, nil
	}
	hours := budget / q
	cycle := time.Duration(hours * float64(time.Hour))
	if cycle < minCycle {
		cycle = minCycle
	}
	if cycle > maxCycle {
		cycle = maxCycle
	}
	return cycle, nil
}

// adapt performs one step of the runtime adaptation rule: given the
// fraction of the scan budget the most active *clean* host consumed in
// the cycle that just ended, it lengthens the cycle when there is
// headroom and shortens it when the budget got tight. The returned cycle
// stays within [minCycle, maxCycle].
//
//   - observedPeakFraction < 0.5 ⇒ ample headroom ⇒ grow cycle by 25 %.
//   - observedPeakFraction > 0.9 ⇒ too tight ⇒ shrink cycle by 25 %.
//   - otherwise keep the current cycle.
func (c CyclePlanner) adapt(current time.Duration, observedPeakFraction float64, minCycle, maxCycle time.Duration) (time.Duration, error) {
	if err := c.validate(); err != nil {
		return 0, err
	}
	if observedPeakFraction < 0 || math.IsNaN(observedPeakFraction) {
		return 0, fmt.Errorf("core: observed peak fraction %v invalid", observedPeakFraction)
	}
	next := current
	switch {
	case observedPeakFraction < 0.5:
		next = current + current/4
	case observedPeakFraction > 0.9:
		next = current - current/4
	}
	if next < minCycle {
		next = minCycle
	}
	if next > maxCycle {
		next = maxCycle
	}
	return next, nil
}

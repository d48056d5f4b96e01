package defense

import (
	"fmt"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/core"
)

// MLimit is the paper's automated containment scheme (Section IV)
// adapted to the simulator: each host may contact at most M distinct
// destination addresses per containment cycle; the attempt that would
// exceed the budget is dropped and the host is removed for the rest of
// the cycle. It delegates the counting to core.Limiter, so the simulator
// exercises the same engine a deployment would run.
type MLimit struct {
	limiter *core.Limiter
	epoch   time.Time
}

var _ Defense = (*MLimit)(nil)

// NewMLimit builds the defense. cycle is the containment-cycle duration;
// simulations of a single outbreak typically use a cycle longer than the
// simulated horizon so no reset occurs mid-run, matching the paper's
// setting where the cycle is weeks and the outbreak minutes.
func NewMLimit(m int, cycle time.Duration) (*MLimit, error) {
	epoch := time.Unix(0, 0).UTC()
	lim, err := core.NewLimiter(core.LimiterConfig{M: m, Cycle: cycle}, epoch)
	if err != nil {
		return nil, fmt.Errorf("defense: m-limit: %w", err)
	}
	return &MLimit{limiter: lim, epoch: epoch}, nil
}

// OnScan counts the destination against the source's distinct-address
// budget and drops the scan once the budget is exhausted.
func (d *MLimit) OnScan(src, dst addr.IP, t time.Duration) Verdict {
	switch d.limiter.Observe(uint32(src), uint32(dst), d.epoch.Add(t)) {
	case core.Deny:
		return Verdict{Action: Drop}
	default:
		return Verdict{Action: Permit}
	}
}

// Blocked reports whether the host has been removed this cycle.
func (d *MLimit) Blocked(src addr.IP, _ time.Duration) bool {
	return d.limiter.Removed(uint32(src))
}

// Name implements Defense.
func (d *MLimit) Name() string {
	return fmt.Sprintf("m-limit(M=%d)", d.limiter.Config().M)
}

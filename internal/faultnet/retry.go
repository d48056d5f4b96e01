package faultnet

import (
	"time"

	"wormcontain/internal/rng"
)

// RetryConfig parameterizes capped exponential backoff with
// deterministic jitter. The zero value is usable: it means "one
// attempt, no retries" for bounded callers like the gateway's dial
// retry, while loops that own their retry budget (the reporter's
// reconnect loop) treat MaxAttempts <= 0 as unlimited and apply the
// delay defaults below.
type RetryConfig struct {
	// MaxAttempts is the total number of attempts (1 = no retries).
	// Callers that document it so treat <= 0 as unlimited.
	MaxAttempts int
	// BaseDelay is the delay after the first failure (default 100ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 30s).
	MaxDelay time.Duration
	// jitter spreads each delay by ±jitter·delay·U with U uniform in
	// [0,1), defeating retry synchronization across a fleet. Zero means
	// the default 0.2; negative disables jitter entirely, which tests
	// use to check the exact curve.
	jitter float64
	// seed seeds the deterministic jitter stream: the same config
	// yields the same delay sequence, so backoff behavior replays.
	seed uint64
}

// backoffMultiplier is the delay's growth factor per failure.
const backoffMultiplier = 2

// withDefaults normalizes zero fields.
func (c RetryConfig) withDefaults() RetryConfig {
	if c.BaseDelay <= 0 {
		c.BaseDelay = 100 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 30 * time.Second
	}
	if c.MaxDelay < c.BaseDelay {
		c.MaxDelay = c.BaseDelay
	}
	if c.jitter == 0 {
		c.jitter = 0.2
	}
	if c.jitter < 0 {
		c.jitter = 0
	}
	return c
}

// Backoff walks one retry episode: Next after each failure, Reset after
// a success. Not safe for concurrent use; each retry loop owns one.
type Backoff struct {
	cfg       RetryConfig
	unlimited bool
	attempts  int
	delay     time.Duration
	src       *rng.SplitMix64
}

// NewBackoff returns a Backoff for the config. Unlimited configs
// (MaxAttempts <= 0) never report exhaustion.
func (c RetryConfig) NewBackoff() *Backoff {
	n := c.withDefaults()
	return &Backoff{
		cfg:       n,
		unlimited: c.MaxAttempts <= 0,
		src:       rng.NewSplitMix64(n.seed ^ 0xba0cf0ff),
	}
}

// Next records one failed attempt and returns the delay to wait before
// the next one. ok is false once the attempt budget is exhausted —
// the caller should give up and surface the last error.
func (b *Backoff) Next() (delay time.Duration, ok bool) {
	b.attempts++
	if !b.unlimited && b.attempts >= b.cfg.MaxAttempts {
		return 0, false
	}
	if b.delay == 0 {
		b.delay = b.cfg.BaseDelay
	} else {
		b.delay = time.Duration(float64(b.delay) * backoffMultiplier)
	}
	if b.delay > b.cfg.MaxDelay {
		b.delay = b.cfg.MaxDelay
	}
	delay = b.delay
	if b.cfg.jitter > 0 {
		// Symmetric jitter: delay · (1 ± jitter·U), never negative.
		u := 2*b.src.Float64() - 1
		delay += time.Duration(b.cfg.jitter * u * float64(delay))
	}
	if delay < 0 {
		delay = 0
	}
	return delay, true
}

// Reset starts a fresh episode after a success: the attempt budget and
// the delay curve start over (the jitter stream continues, keeping the
// whole sequence deterministic).
func (b *Backoff) Reset() {
	b.attempts = 0
	b.delay = 0
}

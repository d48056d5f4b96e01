package faultnet

import (
	"time"

	"wormcontain/internal/rng"
)

// RetryConfig parameterizes capped exponential backoff with
// deterministic jitter. The zero value is usable: it means "one
// attempt, no retries".
type RetryConfig struct {
	// MaxAttempts is the total number of attempts (<= 1 = no retries).
	MaxAttempts int
	// BaseDelay is the delay after the first failure (default 100ms).
	BaseDelay time.Duration
	// jitter spreads each delay by ±jitter·delay·U with U uniform in
	// [0,1), defeating retry synchronization across a fleet. Zero means
	// the default 0.2; negative disables jitter entirely, which tests
	// use to check the exact curve.
	jitter float64
	// seed seeds the deterministic jitter stream: the same config
	// yields the same delay sequence, so backoff behavior replays.
	seed uint64
}

const (
	// backoffMultiplier is the delay's growth factor per failure.
	backoffMultiplier = 2
	// maxDelay caps the exponential growth; a BaseDelay above it is
	// used as is.
	maxDelay = 30 * time.Second
)

// withDefaults normalizes zero fields.
func (c RetryConfig) withDefaults() RetryConfig {
	if c.BaseDelay <= 0 {
		c.BaseDelay = 100 * time.Millisecond
	}
	if c.jitter == 0 {
		c.jitter = 0.2
	}
	if c.jitter < 0 {
		c.jitter = 0
	}
	return c
}

// Backoff walks one retry episode: Next after each failure. Not safe
// for concurrent use; each retry loop owns one.
type Backoff struct {
	cfg      RetryConfig
	attempts int
	delay    time.Duration
	src      *rng.SplitMix64
}

// NewBackoff returns a Backoff for the config.
func (c RetryConfig) NewBackoff() *Backoff {
	n := c.withDefaults()
	return &Backoff{
		cfg: n,
		src: rng.NewSplitMix64(n.seed ^ 0xba0cf0ff),
	}
}

// Next records one failed attempt and returns the delay to wait before
// the next one. ok is false once the attempt budget is exhausted —
// the caller should give up and surface the last error.
func (b *Backoff) Next() (delay time.Duration, ok bool) {
	b.attempts++
	if b.attempts >= b.cfg.MaxAttempts {
		return 0, false
	}
	if b.delay == 0 {
		b.delay = b.cfg.BaseDelay
	} else if b.delay < maxDelay {
		b.delay = min(b.delay*backoffMultiplier, maxDelay)
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

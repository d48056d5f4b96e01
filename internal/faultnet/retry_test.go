package faultnet

import (
	"testing"
	"time"
)

func TestBackoffDeterministicSequence(t *testing.T) {
	cfg := RetryConfig{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond, seed: 99}
	seq := func() []time.Duration {
		b := cfg.NewBackoff()
		var out []time.Duration
		for {
			d, ok := b.Next()
			if !ok {
				return out
			}
			out = append(out, d)
		}
	}
	a, b := seq(), seq()
	if len(a) != cfg.MaxAttempts-1 {
		t.Fatalf("delays = %d, want %d (MaxAttempts-1 retries)", len(a), cfg.MaxAttempts-1)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay %d differs across runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestBackoffGrowthAndCap(t *testing.T) {
	cfg := RetryConfig{MaxAttempts: 10, BaseDelay: 5 * time.Second, jitter: -1} // no jitter: exact curve
	b := cfg.NewBackoff()
	want := []time.Duration{5, 10, 20, 30, 30, 30, 30, 30, 30}
	for i, w := range want {
		d, ok := b.Next()
		if !ok {
			t.Fatalf("exhausted at attempt %d", i)
		}
		if d != w*time.Second {
			t.Errorf("delay %d = %v, want %v", i, d, w*time.Second)
		}
	}
	if _, ok := b.Next(); ok {
		t.Error("budget should be exhausted after MaxAttempts")
	}
	// The zero config is one attempt: the first failure is final.
	if _, ok := (RetryConfig{}).NewBackoff().Next(); ok {
		t.Error("zero RetryConfig allowed a retry")
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	// A base delay at the cap stays there, so every draw jitters it.
	cfg := RetryConfig{MaxAttempts: 201, BaseDelay: maxDelay, jitter: 0.5, seed: 4}
	b := cfg.NewBackoff()
	var lo, hi time.Duration = time.Hour, 0
	for i := 0; i < 200; i++ {
		d, ok := b.Next()
		if !ok {
			t.Fatalf("budget exhausted at retry %d of 200", i)
		}
		if d < maxDelay/2 || d > maxDelay*3/2 {
			t.Fatalf("jittered delay %v outside ±50%% of %v", d, maxDelay)
		}
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if hi-lo < maxDelay/10 {
		t.Errorf("jitter spread only [%v, %v]; expected real dispersion", lo, hi)
	}
}

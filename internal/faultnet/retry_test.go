package faultnet

import (
	"errors"
	"testing"
	"time"
)

func TestBackoffDeterministicSequence(t *testing.T) {
	cfg := RetryConfig{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Seed: 99}
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
	cfg := RetryConfig{MaxAttempts: 10, BaseDelay: 10 * time.Millisecond,
		MaxDelay: 50 * time.Millisecond, Jitter: -1} // no jitter: exact curve
	b := cfg.NewBackoff()
	want := []time.Duration{10, 20, 40, 50, 50, 50, 50, 50, 50}
	for i, w := range want {
		d, ok := b.Next()
		if !ok {
			t.Fatalf("exhausted at attempt %d", i)
		}
		if d != w*time.Millisecond {
			t.Errorf("delay %d = %v, want %v", i, d, w*time.Millisecond)
		}
	}
	if _, ok := b.Next(); ok {
		t.Error("budget should be exhausted after MaxAttempts")
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	cfg := RetryConfig{MaxAttempts: 0, BaseDelay: 100 * time.Millisecond,
		MaxDelay: 100 * time.Millisecond, Jitter: 0.5, Seed: 4}
	b := cfg.NewBackoff()
	var lo, hi time.Duration = time.Hour, 0
	for i := 0; i < 200; i++ {
		d, ok := b.Next()
		if !ok {
			t.Fatal("unlimited backoff reported exhaustion")
		}
		if d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered delay %v outside ±50%% of 100ms", d)
		}
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if hi-lo < 10*time.Millisecond {
		t.Errorf("jitter spread only [%v, %v]; expected real dispersion", lo, hi)
	}
}

func TestBackoffReset(t *testing.T) {
	cfg := RetryConfig{MaxAttempts: 3, BaseDelay: time.Millisecond, Jitter: -1}
	b := cfg.NewBackoff()
	if _, ok := b.Next(); !ok {
		t.Fatal("first retry should be allowed")
	}
	if _, ok := b.Next(); !ok {
		t.Fatal("second retry should be allowed")
	}
	b.Reset()
	if b.attempts != 0 {
		t.Errorf("attempts after reset = %d", b.attempts)
	}
	d, ok := b.Next()
	if !ok || d != time.Millisecond {
		t.Errorf("after reset: delay %v ok %v, want fresh base delay", d, ok)
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	var slept []time.Duration
	calls := 0
	err := doRetry(RetryConfig{MaxAttempts: 5, BaseDelay: time.Millisecond, Jitter: -1},
		func(d time.Duration) { slept = append(slept, d) },
		func() error {
			calls++
			if calls < 3 {
				return errors.New("transient")
			}
			return nil
		})
	if err != nil || calls != 3 || len(slept) != 2 {
		t.Errorf("err=%v calls=%d slept=%v", err, calls, slept)
	}
}

func TestDoExhaustsBudget(t *testing.T) {
	calls := 0
	sentinel := errors.New("down")
	err := doRetry(RetryConfig{MaxAttempts: 4, BaseDelay: time.Microsecond},
		func(time.Duration) {},
		func() error { calls++; return sentinel })
	if !errors.Is(err, sentinel) || calls != 4 {
		t.Errorf("err=%v calls=%d, want sentinel after 4 attempts", err, calls)
	}
}

func TestDoZeroConfigSingleAttempt(t *testing.T) {
	calls := 0
	err := doRetry(RetryConfig{}, func(time.Duration) {}, func() error {
		calls++
		return errors.New("nope")
	})
	if err == nil || calls != 1 {
		t.Errorf("err=%v calls=%d, want one attempt", err, calls)
	}
}

package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramCountSum(t *testing.T) {
	h := newHistogram()
	durations := []time.Duration{0, 1, 100, 1000, 1_000_000, 3 * time.Millisecond}
	var sum uint64
	for _, d := range durations {
		h.Observe(d)
		sum += uint64(d)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(durations)) {
		t.Errorf("Count = %d, want %d", s.Count, len(durations))
	}
	if s.SumNanos != sum {
		t.Errorf("SumNanos = %d, want %d", s.SumNanos, sum)
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	h := newHistogram()
	h.Observe(-time.Second)
	s := h.Snapshot()
	if s.Count != 1 || s.Counts[0] != 1 || s.SumNanos != 0 {
		t.Errorf("negative observation: %+v", s)
	}
}

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		ns   uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
		{1 << 62, 63}, {^uint64(0), 63},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestHistogramQuantileWithinBucket(t *testing.T) {
	h := newHistogram()
	// 90 fast observations (~1µs) and 10 slow ones (~1ms): p50 must land
	// in the fast bucket, p99 in the slow bucket, within a factor of 2.
	for i := 0; i < 90; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.50); p50 < 512*time.Nanosecond || p50 > 2*time.Microsecond {
		t.Errorf("p50 = %v, want ~1µs", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 512*time.Microsecond || p99 > 2*time.Millisecond {
		t.Errorf("p99 = %v, want ~1ms", p99)
	}
	if s.Quantile(0) == 0 {
		t.Errorf("q=0 of a populated histogram should be positive")
	}
	if got := s.Quantile(1); got < 512*time.Microsecond {
		t.Errorf("q=1 = %v, want in the slowest bucket", got)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	var s HistogramSnapshot
	if s.Quantile(0.99) != 0 || s.Mean() != 0 {
		t.Error("empty histogram quantile/mean should be 0")
	}
}

func TestHistogramMean(t *testing.T) {
	h := newHistogram()
	h.Observe(2 * time.Millisecond)
	h.Observe(4 * time.Millisecond)
	if got := h.Snapshot().Mean(); got != 3*time.Millisecond {
		t.Errorf("Mean = %v, want 3ms", got)
	}
}

func TestHistogramSub(t *testing.T) {
	h := newHistogram()
	h.Observe(time.Microsecond)
	before := h.Snapshot()
	h.Observe(time.Millisecond)
	h.Observe(time.Millisecond)
	delta := h.Snapshot().sub(before)
	if delta.Count != 2 {
		t.Errorf("delta Count = %d, want 2", delta.Count)
	}
	if delta.SumNanos != 2*uint64(time.Millisecond) {
		t.Errorf("delta SumNanos = %d", delta.SumNanos)
	}
	if p50 := delta.Quantile(0.5); p50 < 512*time.Microsecond {
		t.Errorf("delta p50 = %v, want in the 1ms bucket", p50)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram()
	const goroutines, each = 8, 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(i) * time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != goroutines*each {
		t.Errorf("Count = %d, want %d", got, goroutines*each)
	}
}

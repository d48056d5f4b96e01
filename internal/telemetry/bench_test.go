package telemetry

// Microbenchmarks for the hot-path primitives. The mutex-counter
// baseline quantifies what the sharded design buys under parallel load.

import (
	"sync"
	"testing"
	"time"
)

func BenchmarkCounterInc(b *testing.B) {
	c := newCounter()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := newCounter()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkMutexCounterIncParallel(b *testing.B) {
	// Baseline: the mutex-guarded counter the gateway used before the
	// telemetry subsystem.
	var mu sync.Mutex
	var n uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			mu.Lock()
			n++
			mu.Unlock()
		}
	})
	_ = n
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := newHistogram()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Observe(time.Duration(i))
			i++
		}
	})
}

func BenchmarkSamplerSample(b *testing.B) {
	s := NewSampler(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Sample()
	}
}

func BenchmarkSnapshot(b *testing.B) {
	r := NewRegistry()
	for _, name := range []string{"a_total", "b_total", "c_total"} {
		r.Counter(name, "").Inc()
	}
	r.Histogram("lat_seconds", "").Observe(time.Millisecond)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}

package core

import (
	"testing"
	"time"
)

func BenchmarkAnalyze(b *testing.B) {
	w := CodeRed(10000, 10)
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDesignM(b *testing.B) {
	w := CodeRed(0, 10)
	target := ContainmentTarget{MaxTotalInfected: 150, Confidence: 0.95}
	for i := 0; i < b.N; i++ {
		if _, err := DesignM(w, target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLimiterObserve measures the per-connection cost of the
// containment engine's hot path (repeat destination: no allocation).
func BenchmarkLimiterObserve(b *testing.B) {
	l, err := NewLimiter(LimiterConfig{M: 5000, Cycle: 30 * 24 * time.Hour}, t0)
	if err != nil {
		b.Fatal(err)
	}
	l.Observe(1, 42, t0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Observe(1, 42, t0)
	}
}

// BenchmarkLimiterObserveDistinct measures the new-destination path.
func BenchmarkLimiterObserveDistinct(b *testing.B) {
	l, err := NewLimiter(LimiterConfig{M: 1 << 30, Cycle: 30 * 24 * time.Hour}, t0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Observe(1, uint32(i), t0)
	}
}

func BenchmarkLimiterMarshalState(b *testing.B) {
	l, err := NewLimiter(LimiterConfig{M: 5000, Cycle: 30 * 24 * time.Hour}, t0)
	if err != nil {
		b.Fatal(err)
	}
	for src := uint32(0); src < 100; src++ {
		for dst := uint32(0); dst < 50; dst++ {
			l.Observe(src, dst, t0)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.MarshalState(); err != nil {
			b.Fatal(err)
		}
	}
}

// snapshotBenchLimiter builds the state shape the repository benchmark's
// decide-stream workload snapshots: `hosts` legitimate sources with an
// 8-destination working set each, plus one scanner per 500 of them that
// has run its M=5000 budget out and been removed.
func snapshotBenchLimiter(b *testing.B, backend string, hosts int) ContainmentLimiter {
	cfg := LimiterConfig{M: 5000, Cycle: 365 * 24 * time.Hour, CheckFraction: 0.9}
	var l ContainmentLimiter
	var err error
	if backend == "sketch" {
		l, err = NewSketchLimiter(SketchConfig{LimiterConfig: cfg, FailureM: 100}, t0)
	} else {
		l, err = NewLimiter(cfg, t0)
	}
	if err != nil {
		b.Fatal(err)
	}
	for h := 0; h < hosts; h++ {
		src := 0x0A000000 + uint32(h)
		for k := uint32(0); k < 8; k++ {
			l.Observe(src, 0xC0000000+uint32(h)*8+k, t0)
		}
	}
	for s := 0; s < hosts/500; s++ {
		src := 0xAC100000 + uint32(s)
		for d := uint32(0); !l.Removed(src); d++ {
			l.Observe(src, d*2654435761+uint32(s), t0)
		}
	}
	return l
}

// BenchmarkLimiterSnapshot measures the snapshot codec at fleet scale:
// marshal and restore time per snapshot and the payload size
// (snapshot-bytes), both backends, 100k and 1M tracked hosts.
func BenchmarkLimiterSnapshot(b *testing.B) {
	for _, backend := range []string{"exact", "sketch"} {
		for _, size := range []struct {
			name  string
			hosts int
		}{{"100k", 100_000}, {"1M", 1_000_000}} {
			b.Run(backend+"/hosts="+size.name, func(b *testing.B) {
				l := snapshotBenchLimiter(b, backend, size.hosts)
				data, err := l.MarshalState()
				if err != nil {
					b.Fatal(err)
				}
				b.Run("marshal", func(b *testing.B) {
					b.ReportMetric(float64(len(data)), "snapshot-bytes")
					for i := 0; i < b.N; i++ {
						if _, err := l.MarshalState(); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.Run("restore", func(b *testing.B) {
					b.ReportMetric(float64(len(data)), "snapshot-bytes")
					for i := 0; i < b.N; i++ {
						if _, err := RestoreAnyLimiter(data); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}
}
